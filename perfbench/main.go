// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload against the program in this process, checks every
// result against a model of the key set, and prints the metrics as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 a traced copy of the system runs in slices interleaved
// with an untraced copy and the metrics are the per-layer ones. Build and
// run it from the repository root with
//
//	bash perfbench/run.sh --workload tree-mixed --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the data directories and span files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	data := filepath.Join(*out, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(data, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(data)
	e := &env{name: *name, seed: *seed, seconds: *seconds, data: data, out: *out}

	st := newStamp(e, data)
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(e, w)
	} else {
		res, err = runPlain(e, w)
	}
	st.finish()
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stampJSON, _ := json.Marshal(map[string]any{"stamp": st})
	fmt.Println(string(stampJSON))
	res.print(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
