package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp records what a run ran on, so a noisy run can be explained after
// the fact.
type stamp struct {
	Revision   string  `json:"git_revision"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"cpus"`
	CPUModel   string  `json:"cpu_model"`
	DataFS     string  `json:"data_fs"`
	Seed       int64   `json:"seed"`
	StealPct   float64 `json:"host_steal_pct"`

	steal0 stealSample
}

func newStamp(e *env, dataDir string) *stamp {
	return &stamp{
		Revision:   gitRevision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		DataFS:     fsType(dataDir),
		Seed:       e.seed,
		steal0:     readSteal(),
	}
}

func (s *stamp) finish() { s.StealPct = readSteal().since(s.steal0) }

// gitRevision reads HEAD from the .git directory of the working directory,
// following one symbolic ref; "unknown" outside a git checkout.
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// stealSample is the host-wide CPU time split from /proc/stat.
type stealSample struct{ steal, total uint64 }

func readSteal() stealSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealSample{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// since returns the steal share of CPU time between s0 and s, in percent.
func (s stealSample) since(s0 stealSample) float64 {
	if s.total <= s0.total {
		return 0
	}
	return 100 * float64(s.steal-s0.steal) / float64(s.total-s0.total)
}

// processCPU is the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
