package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one printed metric and its unit. The two tables below
// mirror BENCHMARK.json (a test keeps them equal).
type metricSpec struct{ name, unit string }

// endToEnd metrics are what a user of each workload sees. Every workload
// reports all of them; what an operation and a unit of work are per
// workload is stated in BENCHMARK.json's workload entries and in
// predictions.json.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from the traced pass; a layer a workload does not
// exercise reads 0.
var perLayer = []metricSpec{
	{"trace.generate_ms", "ms"},
	{"sim.events", "count"},
	{"sim.pending_max", "count"},
	{"simrun.event_us_p50", "us"},
	{"simrun.event_us_p99", "us"},
	{"simrun.event_us_p50.backlog_lt1k", "us"},
	{"simrun.event_us_p50.backlog_1k_10k", "us"},
	{"simrun.event_us_p50.backlog_ge10k", "us"},
	{"core.launches", "count"},
	{"core.aborts", "count"},
	{"core.resends", "count"},
	{"core.restarts", "count"},
	{"core.us_per_launch", "us"},
	{"core.pending_max", "count"},
	{"core.sched_queue_max", "count"},
	{"core.replica_hits", "count"},
	{"core.recomputes", "count"},
	{"core.reclaims", "count"},
	{"cluster.busy_frac", "ratio"},
	{"graphlet.partition_calls", "count"},
	{"graphlet.partition_ms", "ms"},
	{"shuffle.select_calls", "count"},
	{"shuffle.mode.direct", "count"},
	{"shuffle.mode.local", "count"},
	{"shuffle.mode.remote", "count"},
	{"sched.job_order_calls", "count"},
	{"sched.job_order_ms", "ms"},
	{"sched.proportion_ms", "ms"},
	{"sched.preempt_ms", "ms"},
	{"flow.admitted", "count"},
	{"flow.queued", "count"},
	{"flow.shed", "count"},
	{"obs.events", "count"},
	{"obs.stream_hash_ms", "ms"},
	{"obs.overhead_s", "s"},
	{"chaos.faults_injected", "count"},
	{"engine.tasks", "count"},
	{"engine.task_ms_p50", "ms"},
	{"engine.task_ms_p99", "ms"},
	{"engine.task_busy_s", "s"},
	{"engine.dispatch_ms_p50", "ms"},
	{"store.put_mb", "MB"},
	{"store.gets", "count"},
	{"store.spill_mb", "MB"},
	{"sqlparse.compile_us", "us"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.live_heap_mb", "MB"},
	{"self_ms.trace", "ms"},
	{"self_ms.simrun", "ms"},
	{"self_ms.graphlet", "ms"},
	{"self_ms.shuffle", "ms"},
	{"self_ms.sched", "ms"},
	{"self_ms.chaos", "ms"},
	{"self_ms.obs", "ms"},
	{"self_ms.engine", "ms"},
	{"self_ms.sqlparse", "ms"},
	{"bench.trace_overhead_s", "s"},
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the high-water resident set size of a process from
// /proc (pid 0 means this process).
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// goStats measures the Go runtime over one pass of a workload.
type goStats struct{ before runtime.MemStats }

func startGoStats() *goStats {
	g := &goStats{}
	runtime.ReadMemStats(&g.before)
	return g
}

// finish records allocation and GC over the pass. live must still reference
// the pass's results: the live heap is measured after a forced GC while it
// does, so retained state shows.
func (g *goStats) finish(o *outcome, live interface{}) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.metrics["go.alloc_mb"] = float64(after.TotalAlloc-g.before.TotalAlloc) / (1 << 20)
	o.metrics["go.gc_cycles"] = float64(after.NumGC - g.before.NumGC)
	o.metrics["go.gc_pause_ms"] = float64(after.PauseTotalNs-g.before.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&after)
	o.metrics["go.live_heap_mb"] = float64(after.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(live)
}

// samples is what a timed run collects for the end-to-end metrics.
type samples struct {
	setups    []float64 // seconds per set-up
	units     []float64 // seconds per unit of work
	ops       int       // operations completed
	opSeconds float64   // wall seconds those operations took
	latencies []float64 // ms per operation
}

// reportEndToEnd sets every end-to-end metric; rss is the peak resident
// set of the process that ran the program.
func (o *outcome) reportEndToEnd(s samples, rss float64) {
	o.metrics["setup_s"] = median(s.setups)
	o.metrics["run_s"] = median(s.units)
	o.metrics["ops_per_s"] = float64(s.ops) / s.opSeconds
	o.metrics["op_p50_ms"] = quantile(s.latencies, 0.50)
	o.metrics["op_p99_ms"] = quantile(s.latencies, 0.99)
	o.metrics["peak_rss_mb"] = rss
}

// deadline reports whether another unit of work should start: at least
// minUnits run, then units continue until the measured budget is spent.
func deadline(start time.Time, budget float64, done, minUnits int) bool {
	return done >= minUnits && time.Since(start).Seconds() >= budget
}
