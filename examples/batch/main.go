// Command batch demonstrates the batched operation surface end-to-end:
// the in-process batch API with its per-slot failure model, a batch
// frame over the wire through client.Do, and a pipelined client keeping
// many requests in flight on one connection.
//
// The thing to notice at every layer: a batch is per-op linearizable,
// never atomic. Each operation takes effect individually, a bad key
// fails only its own slot, and no reader anywhere observes a "batch
// boundary".
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	bst "repro"
	"repro/internal/client"
	"repro/internal/server"
)

func main() {
	// --- In process: one call, one epoch pin, one wavefront seek. ---
	tree := bst.New()
	keys := []int64{40, 10, 30, 20, bst.MaxKey + 1, 10}
	out := make([]bst.OpResult, len(keys))
	tree.InsertBatch(keys, out)
	for i, r := range out {
		switch {
		case errors.Is(r.Err, bst.ErrKeyOutOfRange):
			fmt.Printf("insert %d: out of range (its neighbours still ran)\n", keys[i])
		case r.OK:
			fmt.Printf("insert %d: added\n", keys[i])
		default:
			fmt.Printf("insert %d: already present\n", keys[i])
		}
	}
	if got := tree.Len(); got != 4 {
		log.Fatalf("Len = %d, want 4", got)
	}

	// --- Over the wire: one frame, one admission token, per-op statuses. ---
	srv := server.New(server.Config{Store: tree})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	ops := []client.Op{
		client.LookupOp(20),
		client.DeleteOp(30),
		client.InsertOp(50),
		client.LookupOp(30),
	}
	results, err := cl.Do(ctx, ops)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("wire op %d (key %d): ok=%v\n", i, ops[i].Key, r.OK)
	}
	if !results[0].OK || !results[1].OK || !results[2].OK || results[3].OK {
		log.Fatalf("unexpected wire batch results: %+v", results)
	}

	// --- Pipelined: many single-op frames in flight on one connection. ---
	p, err := cl.NewPipeline(ctx)
	if err != nil {
		log.Fatal(err)
	}
	var futs []*client.Future
	for k := int64(100); k < 108; k++ {
		f, err := p.Submit(ctx, client.InsertOp(k))
		if err != nil {
			log.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		ok, err := f.Wait(ctx)
		if err != nil || !ok {
			log.Fatalf("pipelined insert %d = (%v, %v)", 100+i, ok, err)
		}
	}
	if err := p.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipelined 8 inserts on one connection")

	cl.Close()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final tree: %d keys, invariants hold\n", tree.Len())
}
