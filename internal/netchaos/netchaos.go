// Package netchaos is a network fault-injection layer for cluster tests:
// a retargetable TCP proxy pinned between two members, with per-link
// rules — full partition, one-way blackhole, added latency and jitter, a
// bandwidth cap, and drop-after-N-bytes — that can change while
// connections are live. Faults are applied per forwarded chunk, so
// setting a partition makes an established replication stream go silent
// (heartbeats vanish, leases expire) without a TCP reset, exactly like a
// switch eating packets; healing the partition lets the same connection
// resume if both ends kept it open.
//
// Proxies are created before the processes they front (tests learn child
// addresses only after spawning them), so the forward target is settable
// after construction: until SetTarget, inbound connections are accepted
// and immediately closed, which dialers experience as a connect-then-EOF
// and retry.
//
// All randomness (jitter, schedule shuffling in callers) comes from a
// seeded splitmix64 generator so a chaos run reproduces from its seed.
package netchaos

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// chunkSize bounds one pump read; faults (latency, bandwidth, drop
// decisions) apply per chunk.
const chunkSize = 32 << 10

// Rule is the fault configuration of one link direction pair. The zero
// Rule forwards transparently.
type Rule struct {
	// Partition silently discards traffic in both directions. Connections
	// stay open — the remote sees silence, not a reset.
	Partition bool
	// BlackholeUp/BlackholeDown discard one direction only: Up is
	// client→target (e.g. a follower's acks vanish), Down is
	// target→client (e.g. the leader's heartbeats vanish).
	BlackholeUp   bool
	BlackholeDown bool
	// Latency is a base one-way delay added to every forwarded chunk;
	// Jitter adds a deterministic pseudo-random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBPS caps forwarding throughput in bytes per second
	// (0 = unlimited), modeled as a per-chunk sleep.
	BandwidthBPS int
	// DropAfterBytes hard-closes a connection once it has forwarded this
	// many bytes in total, both directions combined (0 = never): the chunk
	// that reaches the budget is forwarded only up to it, then the link
	// closes. Models a link that dies mid-transfer — snapshot ships,
	// catch-up replays.
	DropAfterBytes int64
}

// Proxy is one listener forwarding to one (retargetable) address.
type Proxy struct {
	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool
	rng    *Rand

	mu     sync.Mutex
	target string
	rule   Rule
	conns  map[net.Conn]struct{}

	bytesUp   atomic.Int64
	bytesDown atomic.Int64
}

// New starts a proxy on a loopback ephemeral port with no target. seed
// feeds the jitter generator.
func New(seed uint64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netchaos: listen: %w", err)
	}
	p := &Proxy{ln: ln, rng: NewRand(seed), conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address to hand to the dialing side.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetTarget points the proxy at the real endpoint. Existing connections
// keep their original target; new ones dial the new address.
func (p *Proxy) SetTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

// Target returns the current forward address ("" until SetTarget).
func (p *Proxy) Target() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

// SetRule replaces the link's fault rule. It applies to live connections
// from their next chunk onward.
func (p *Proxy) SetRule(r Rule) {
	p.mu.Lock()
	p.rule = r
	p.mu.Unlock()
}

// Rule returns the current fault rule.
func (p *Proxy) Rule() Rule {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rule
}

// Sever closes every live connection (the listener keeps accepting).
// Unlike Partition this is a visible failure — dialers see resets and
// reconnect, subject to whatever rule is then in force.
func (p *Proxy) Sever() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// BytesForwarded reports total forwarded traffic (up, down). A chunk is
// counted before it is written, so bytes a peer has received are always
// included.
func (p *Proxy) BytesForwarded() (up, down int64) {
	return p.bytesUp.Load(), p.bytesDown.Load()
}

// Close stops the listener and closes every connection.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.Sever()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(c)
		}()
	}
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

// handle runs one proxied connection: dial the target, then pump both
// directions until either side fails or a rule kills the link.
func (p *Proxy) handle(c net.Conn) {
	if !p.track(c) {
		c.Close()
		return
	}
	defer p.untrack(c)
	target := p.Target()
	if target == "" {
		return // connect-then-EOF; the dialer retries
	}
	t, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return
	}
	if !p.track(t) {
		t.Close()
		return
	}
	defer p.untrack(t)

	var total atomic.Int64
	done := make(chan struct{}, 2)
	go p.pump(c, t, true, &total, done)
	go p.pump(t, c, false, &total, done)
	<-done
	c.Close()
	t.Close()
	<-done
}

// pump forwards src→dst one chunk at a time, consulting the rule fresh
// for every chunk so fault transitions land mid-stream.
func (p *Proxy) pump(src, dst net.Conn, up bool, total *atomic.Int64, done chan<- struct{}) {
	defer func() { done <- struct{}{} }()
	buf := make([]byte, chunkSize)
	for {
		nr, err := src.Read(buf)
		if nr > 0 {
			r := p.Rule()
			drop := r.Partition || (up && r.BlackholeUp) || (!up && r.BlackholeDown)
			if !drop {
				if d := r.Latency + p.rng.Duration(r.Jitter); d > 0 {
					time.Sleep(d)
				}
				if r.BandwidthBPS > 0 {
					time.Sleep(time.Duration(float64(nr) / float64(r.BandwidthBPS) * float64(time.Second)))
				}
				n, last := reserve(total, int64(nr), r.DropAfterBytes)
				if up {
					p.bytesUp.Add(n)
				} else {
					p.bytesDown.Add(n)
				}
				if n > 0 {
					if _, werr := dst.Write(buf[:n]); werr != nil {
						return
					}
				}
				if last {
					src.Close()
					dst.Close()
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// reserve claims up to n bytes of a connection's forwarding budget, shared
// by both directions: it returns how many of them may be forwarded, and
// last when the budget is spent and the link must close after them. A
// budget of 0 is unlimited. The claim is one CAS, so the two pumps can
// never forward more than the budget between them.
func reserve(total *atomic.Int64, n, budget int64) (int64, bool) {
	if budget <= 0 {
		total.Add(n)
		return n, false
	}
	for {
		cur := total.Load()
		grant := min(n, max(budget-cur, 0))
		if total.CompareAndSwap(cur, cur+grant) {
			return grant, cur+grant >= budget
		}
	}
}

// Rand is a splitmix64 generator: tiny, seedable, lock-free, and — unlike
// the global math/rand source — reproducible per proxy, so a chaos run
// replays exactly from its seed.
type Rand struct{ state atomic.Uint64 }

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.state.Store(seed)
	return r
}

// Next returns the next 64-bit value.
func (r *Rand) Next() uint64 {
	x := r.state.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Intn returns a value in [0, n); n <= 0 returns 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Duration returns a value in [0, max); max <= 0 returns 0.
func (r *Rand) Duration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(r.Next() % uint64(max))
}

// Event is one scheduled fault transition in a chaos script.
type Event struct {
	// At is the event's offset from the schedule's start.
	At time.Duration
	// Name labels the event in the run log.
	Name string
	// Do applies the transition (set a rule, sever a link, kill a node).
	Do func()
}

// ErrScheduleStopped reports a schedule interrupted via stop.
var ErrScheduleStopped = errors.New("netchaos: schedule stopped")

// RunSchedule fires events in At order relative to its own start time,
// blocking between them. Events with equal At keep their slice order, so
// a script is deterministic given a deterministic construction. logf (if
// non-nil) receives one line per event; stop (if non-nil) aborts the
// remainder.
func RunSchedule(events []Event, stop <-chan struct{}, logf func(format string, args ...any)) error {
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	start := time.Now()
	for _, e := range evs {
		if d := e.At - time.Since(start); d > 0 {
			if stop == nil {
				time.Sleep(d)
			} else {
				select {
				case <-stop:
					return ErrScheduleStopped
				case <-time.After(d):
				}
			}
		} else if stop != nil {
			select {
			case <-stop:
				return ErrScheduleStopped
			default:
			}
		}
		if logf != nil {
			logf("chaos: t=%v %s", e.At, e.Name)
		}
		e.Do()
	}
	return nil
}
