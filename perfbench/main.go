// Command perfbench is IntelliTag's reproducible benchmark. One invocation
// runs one named workload with one seed for a fixed measuring time and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 they
// are the per-layer metrics of a traced run. The line before it carries the
// environment block (Go version, GOMAXPROCS, nproc, CPU model, commit).
//
// Every workload drives the production request path in-process through
// serving.Server.ServeHTTP with one closed-loop client; see README.md for the
// workloads, metrics and the measured spread behind each bound.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload support_sessions --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options carries one invocation's settings plus the workload scale.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	workDir  string // scratch directory for snapshot stores
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options) (*report, error){
	"support_sessions": runSupport,
	"large_catalog":    runLargeCatalog,
	"daily_refresh":    runDailyRefresh,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: support_sessions, large_catalog or daily_refresh")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's turns")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time of the run in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		os.Exit(2)
	}
	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	o.scale = fullScale
	dir, err := newWorkDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.workDir = dir
	rep, err := run(o)
	_ = os.RemoveAll(dir) // scratch snapshots; a leftover directory is harmless
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, extra := rep.split(o.trace)
	printSummary(rep)
	// The line before the result carries the environment and the measured
	// metrics the manifest sets no bound on (README.md says why).
	envLine, err := json.Marshal(map[string]any{"env": collectEnv(), "unbounded_metrics": extra})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(envLine))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// split separates the result line, which holds exactly the metrics
// BENCHMARK.json declares (the bounded end-to-end metrics, or traced the
// per-layer ones), from the other measured metrics.
func (r *report) split(traced bool) (result, map[string]metric) {
	res := r.result()
	res.Metrics = map[string]metric{}
	extra := map[string]metric{}
	for k, v := range r.metrics {
		extra[k] = v
	}
	declare := func(name string) {
		res.Metrics[name] = r.metrics[name]
		delete(extra, name)
	}
	if traced {
		for _, m := range perLayer {
			declare(m.name)
		}
		return res, extra
	}
	for _, m := range endToEndMetrics {
		if m.bounded {
			declare(m.name)
		}
	}
	return res, extra
}

// printSummary writes the metrics as a readable table to standard error.
func printSummary(r *report) {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: %d turns attempted, %d failed, %d check failures\n",
		r.workload, r.attempted, r.failed, len(r.problems))
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "  check failed:", p)
	}
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
