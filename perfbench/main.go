// Command perfbench is the layered collection benchmark: it drives the
// hdr4me collector from outside — user-side randomization, the wire
// clients, the TCP server, the striped estimators, the epoch ring and the
// HDR4ME re-calibration — over two named workloads, checks that the
// collected estimates are correct, and prints one JSON result line.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload pipeline-hd --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics (span self times plus isolated layer
// probes on the workload's recorded inputs). README.md documents every
// workload, metric and layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // where build outputs, spans and temp state go
	miscount bool   // self-test hook: corrupt the expected report count by one
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for spans and temporary collector state")
	flag.BoolVar(&cfg.miscount, "miscount", false, "expect one report more than was sent (self-test of the correctness check)")
	flag.Parse()
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || !(cfg.seconds > 0) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload in the requested mode.
func run(cfg config, w *workload) (*result, error) {
	in, err := generateInputs(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &runner{cfg: cfg, w: w, in: in, tmp: tmp}
	if cfg.trace {
		return r.traced()
	}
	return r.untraced()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSummary writes a human-readable account of the run to stderr.
func printSummary(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
