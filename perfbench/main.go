// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed number of seconds, checks every simulated output
// against golden digests, and prints its metrics as the last line of
// standard output:
//
//	go run . --workload paper_h6_advc --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (tracing off); with
// --trace 1 it alternates untraced and traced units of the same work and
// prints the per-layer metrics measured on the traced ones, plus the
// tracing overhead. Spans of the traced run are written once, at exit, to
// <dir>/trace/. See README.md for the workloads and the metric
// definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeed and heldOutSeed have committed goldens (goldens.json). A
// performance claim is made on the default seed and must also hold on the
// held-out one, which is not used while a change is written.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// workload is one set of inputs the benchmark can run.
type workload struct {
	name string
	// run measures the workload on b until b's time is up.
	run func(b *bench) error
	// oracle recomputes the digests of keys through a path independent of
	// the measured one; it runs only for digests no golden covers yet.
	oracle func(b *bench, keys []string) (map[string]string, error)
}

// workloads are the gated workloads, in the order of BENCHMARK.json.
var workloads = []workload{
	{"paper_h6_advc", runPaper, oraclePaper},
	{"serve_sweeps", runServe, oracleServe},
	{"sched_lifetime", runSched, oracleSched},
}

// ungated workloads run and check their goldens like the gated ones, but
// are not listed in BENCHMARK.json: figures_h3's run-to-run spread on a
// shared 2-core container reached a third of its median (README.md).
var ungated = []workload{
	{"figures_h3", runFigures, oracleFigures},
}

func workloadByName(name string) (workload, error) {
	all := append(append([]workload(nil), workloads...), ungated...)
	names := make([]string, len(all))
	for i, w := range all {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; all inputs derive from it")
	seconds := fs.Float64("seconds", 30, "measurement time; units started before it ends run to completion")
	trace := fs.Int("trace", 0, "1: alternate traced and untraced units and report per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for scratch files, the golden cache and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	abs, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := newBench(w, *seed, *seconds, *trace == 1, abs, false)
	res, err := b.execute(committedGoldens)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b.printReport(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printReport writes the human-readable table: every metric with its unit,
// plus the sample counts and notes the JSON line has no room for.
func (b *bench) printReport(w io.Writer) {
	mode := "untraced"
	if b.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d %s: %d units, %d/%d operations failed\n",
		b.w.name, b.seed, mode, len(b.units), b.failed, b.attempted)
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}
