// Command perfbench is the repository benchmark. It runs one named workload
// against the program's public entry points, checks that the outputs are
// correct, and prints one JSON result line as the last line of standard
// output.
//
// Usage (normally through run.sh, which builds this binary):
//
//	perfbench --workload replay --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries every end-to-end metric; with --trace 1
// it carries every per-layer metric, measured by a separate traced pass
// whose spans are written under the work directory when the run ends.
// BENCHMARK.json at the repository root lists the workloads and metrics;
// predictions.json beside this file says which end-to-end metric each
// per-layer metric should move, and on which workload.
//
// The exit status is 0 when every output check passed, 1 when a check
// failed (the result line then reads "correct": false), and 2 when the run
// could not be made at all (no result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// tiny shrinks every input so the benchmark's own tests run fast.
	tiny    bool
	workdir string // scratch space inside the checkout
}

// outcome is one workload run: the operation tallies, the failed output
// checks and the measured metrics (values only; units come from the
// metric tables).
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...interface{}) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// subSeed derives the k-th input seed of a run.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// unitInput picks the input of a run's i-th unit of work. Run time depends
// on the input's shape, so every unit gets a new input and the run's
// figures pool over many shapes; only the first input runs twice, which
// checks that the same input reproduces the same outputs.
func unitInput(i int) int {
	if i == 0 {
		return 0
	}
	return i - 1
}

type workloadFn func(cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFn{
	"replay":      runReplay,
	"fault-storm": runFaultStorm,
	"tpch":        runTPCH,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result assembles the printed line. Every metric of the mode's table is
// present: a per-layer metric the workload does not exercise reads 0, an
// end-to-end metric a workload failed to measure is an error.
func result(o *outcome, traced bool) (resultJSON, error) {
	table := endToEnd
	if traced {
		table = perLayer
	}
	res := resultJSON{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(table)),
	}
	for _, m := range table {
		v, ok := o.metrics[m.name]
		if !ok && !traced {
			return res, fmt.Errorf("workload did not measure end-to-end metric %s", m.name)
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	var extra []string
	for name := range o.metrics {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("workload measured metrics outside the table: %v", extra)
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("workload attempted no operation")
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload name: replay, fault-storm or tpch")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "measured seconds")
	traceMode := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for spans")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: --workload %q --trace %d --seconds %g\n", *workload, *traceMode, *seconds)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traceMode == 1, workdir: *workdir}
	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %s\n", *workload, p)
	}
	correct, err := emit(os.Stdout, o, cfg.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// emit prints the result line and reports whether every output check
// passed.
func emit(w io.Writer, o *outcome, traced bool) (bool, error) {
	res, err := result(o, traced)
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("encode result: %w", err)
	}
	if _, err := fmt.Fprintln(w, string(line)); err != nil {
		return false, err
	}
	return res.Correct, nil
}
