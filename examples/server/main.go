// Command server demonstrates the full serving robustness stack in one
// process: a bstserve server fronting a deliberately tiny arena, and a
// retrying client whose backoff rides out arena exhaustion over the wire.
//
// The client fills the tree until the server answers with a capacity
// status (which surfaces as bst.ErrCapacity — the same sentinel as the
// in-process API), a "janitor" frees keys as a real workload's deletes
// would, and the client's capacity backoff converges: the insert that was
// repeatedly refused eventually lands. The server then drains gracefully
// and the reclamation domain closes.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	bst "repro"
	"repro/internal/client"
	"repro/internal/server"
)

func main() {
	// A 256-node arena with reclamation: small enough to exhaust in
	// milliseconds, recoverable because deletes recycle nodes.
	tree := bst.New(bst.WithCapacity(256), bst.WithReclamation())
	srv := server.New(server.Config{Store: tree})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("serving on", srv.Addr())

	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Fill over the wire until the server pushes back. A one-attempt
	// client shows the raw error; note it is the *in-process* sentinel.
	oneShot, err := client.Dial(client.Config{Addr: srv.Addr().String(), MaxAttempts: 1, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer oneShot.Close()
	var live []int64
	for k := int64(0); ; k++ {
		ok, err := oneShot.Insert(ctx, k)
		if errors.Is(err, bst.ErrCapacity) {
			fmt.Printf("arena full after %d keys: %v\n", len(live), err)
			break
		}
		if err != nil || !ok {
			log.Fatalf("Insert(%d) = (%v, %v)", k, ok, err)
		}
		live = append(live, k)
	}

	// A janitor frees keys shortly — while the retrying client is already
	// hammering an insert that cannot yet succeed. Its capacity backoff
	// (longer than the shed backoff: space returns on reclamation
	// timescales) keeps it from busy-spinning until the frees land.
	go func() {
		time.Sleep(50 * time.Millisecond)
		for _, k := range live[:len(live)/2] {
			if ok, err := cl.Delete(context.Background(), k); err != nil || !ok {
				log.Fatalf("janitor Delete(%d) = (%v, %v)", k, ok, err)
			}
		}
		fmt.Printf("janitor freed %d keys\n", len(live)/2)
	}()

	ictx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	start := time.Now()
	ok, err := cl.Insert(ictx, 1<<40)
	if err != nil || !ok {
		log.Fatalf("recovering insert = (%v, %v)", ok, err)
	}
	st := cl.Stats()
	fmt.Printf("insert converged after %v (%d retries, %d capacity refusals seen)\n",
		time.Since(start).Round(time.Millisecond), st.Retries, st.CapacityErrs)

	// Graceful drain, then close the reclamation domain.
	dctx, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if err := srv.Shutdown(dctx); err != nil {
		log.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		log.Fatal(err)
	}
	c := srv.Counters()
	fmt.Printf("drained: %d requests served, %d capacity errors on the wire, %d conns\n",
		c.Requests, c.CapacityErrs, c.ConnsAccepted)
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tree valid after exhaustion, recovery and drain")
}
