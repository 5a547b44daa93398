package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/trace"
)

// replay: a Fig-8 trace replayed on the simulated Swift deployment with
// FIFO scheduling, no faults and no obs recorder. The trace saturates the
// cluster so the pending backlog reaches tens of thousands of tasks, which
// puts nearly all the work in the control-plane hot path (sim heap, core
// schedule/launch, cluster allocation, the simrun event loop).
//
// Unit of work: one replay, from the first submission to quiescence.
// Operation: one job; its latency is the wall time between its submission
// event and its completion action.

type replaySpec struct {
	jobs     int
	window   float64 // arrival window, virtual seconds
	machines int
	execs    int
}

func replaySize(tiny bool) replaySpec {
	if tiny {
		return replaySpec{jobs: 60, window: 20, machines: 10, execs: 8}
	}
	return replaySpec{jobs: 2000, window: 200, machines: 100, execs: 60}
}

// replayUnit is one replay's measurements.
type replayUnit struct {
	traceSeed  int64
	generate   time.Duration
	setup      time.Duration // trace generation plus runner build and submission scheduling
	run        time.Duration
	jobs       int
	completed  int
	jobLatency []float64 // wall ms per completed job
	digest     uint64
	violations []string
	runner     *simrun.Runner
	layers     *replayLayers
}

// replayLayers collects the traced pass's per-layer observations.
type replayLayers struct {
	wrap         *controllerWrap
	root, cur    int32
	curStart     int64
	curLaunches  int
	prevPending  int
	launches     int
	aborts       int
	resends      int
	restarts     int
	launchEvents time.Duration // wall time of events that launched tasks
	events       []float64     // µs per event
	backlog      [3][]float64  // µs per event, by pending tasks at its start
	pendingMax   int
	queueMax     int
	simPending   int
	// busy integrates busy executors over virtual time; queued marks the
	// span from the first to the last moment the scheduler queue held
	// requests (work waiting for executors), with busy at both ends.
	busy                 float64
	lastVirt             sim.Time
	lastBusy             int
	queuedFrom, queuedTo sim.Time
	busyAtFrom, busyAtTo float64
	queuedSeen           bool
}

func backlogBucket(pending int) int {
	switch {
	case pending < 1000:
		return 0
	case pending < 10000:
		return 1
	}
	return 2
}

// replayOnce generates one trace, builds the runner and replays it. With a
// non-nil tracer the pass records spans and per-layer counters.
func replayOnce(spec replaySpec, traceSeed int64, tr *tracer) *replayUnit {
	u := &replayUnit{traceSeed: traceSeed}
	t0 := time.Now()
	gen := tr.begin("trace.generate", noSpan)
	tc := trace.Generate(trace.Spec{Jobs: spec.jobs, Seed: traceSeed, ArrivalWindow: spec.window})
	tr.end(gen)
	u.generate = time.Since(t0)
	opts := baseline.Swift()
	var lay *replayLayers
	if tr != nil {
		lay = &replayLayers{root: noSpan, cur: noSpan}
		lay.wrap = &controllerWrap{tr: tr, parent: func() int32 { return lay.cur }}
		opts = lay.wrap.options(opts)
	}
	r := simrun.New(simrun.Config{
		Cluster: cluster.Config{Machines: spec.machines, ExecutorsPerMachine: spec.execs, Model: cluster.DefaultModel()},
		Options: opts,
		Seed:    traceSeed,
	})
	eng := r.Engine()
	submitted := make(map[string]time.Time, len(tc.Jobs))
	for _, j := range tc.Jobs {
		job := j.Job
		eng.At(sim.FromSeconds(j.SubmitAt), func() {
			submitted[job.ID] = time.Now()
			_ = r.Submit(job)
		})
	}
	u.jobs = len(tc.Jobs)
	r.SetActionHook(func(_ sim.Time, a core.Action) {
		switch a := a.(type) {
		case core.ActJobCompleted:
			u.jobLatency = append(u.jobLatency, millis(time.Since(submitted[a.Job])))
		case core.ActStartTask:
			if lay != nil {
				lay.launches++
				lay.curLaunches++
			}
		case core.ActAbortTask:
			if lay != nil {
				lay.aborts++
			}
		case core.ActResend:
			if lay != nil {
				lay.resends++
			}
		case core.ActJobRestarted:
			if lay != nil {
				lay.restarts++
			}
		}
	})
	if lay != nil {
		ctrl, cl := r.Controller(), r.Cluster()
		total := cl.NumExecutors()
		r.SetEventHook(func(now sim.Time) {
			at := tr.now()
			tr.endAt(lay.cur, at)
			d := float64(at-lay.curStart) / 1e3
			lay.events = append(lay.events, d)
			b := backlogBucket(lay.prevPending)
			lay.backlog[b] = append(lay.backlog[b], d)
			if lay.curLaunches > 0 {
				lay.launchEvents += time.Duration(at - lay.curStart)
			}
			lay.curLaunches = 0
			lay.busy += (now - lay.lastVirt).Seconds() * float64(lay.lastBusy)
			lay.lastVirt, lay.lastBusy = now, total-cl.FreeExecutors()
			snap := ctrl.Snapshot()
			if snap.SchedQueueLen > 0 {
				if !lay.queuedSeen {
					lay.queuedSeen, lay.queuedFrom, lay.busyAtFrom = true, now, lay.busy
				}
				lay.queuedTo, lay.busyAtTo = now, lay.busy
			}
			lay.prevPending = snap.PendingTasks
			lay.pendingMax = max(lay.pendingMax, snap.PendingTasks)
			lay.queueMax = max(lay.queueMax, snap.SchedQueueLen)
			lay.simPending = max(lay.simPending, eng.Pending())
			lay.curStart = tr.now()
			lay.cur = tr.beginAt("simrun.event", lay.root, lay.curStart)
		})
	}
	u.setup = time.Since(t0)

	t1 := time.Now()
	if lay != nil {
		lay.root = tr.begin("simrun.run", noSpan)
		lay.curStart = tr.now()
		lay.cur = tr.beginAt("simrun.event", lay.root, lay.curStart)
	}
	res := r.Run()
	u.run = time.Since(t1)
	if lay != nil {
		tr.end(lay.cur)
		tr.end(lay.root)
		u.layers = lay
	}

	h := fnv.New64a()
	for _, jr := range res.SortedJobs() {
		if jr.Completed {
			u.completed++
		}
		fmt.Fprintf(h, "%s|%t|%d|%d\n", jr.ID, jr.Completed, jr.Submit, jr.Finish)
	}
	u.digest = h.Sum64()
	u.violations = r.Controller().CheckInvariants()
	u.runner = r
	return u
}

// checkReplay applies the replay output checks to one unit: every job
// completes, the controller invariants hold at the end, and a trace seen
// before reproduces its digest.
func checkReplay(o *outcome, u *replayUnit, digests map[int64]uint64) {
	o.attempted += int64(u.jobs)
	o.failed += int64(u.jobs - u.completed)
	o.check(u.completed == u.jobs, "trace %d: %d of %d jobs completed", u.traceSeed, u.completed, u.jobs)
	o.check(len(u.violations) == 0, "trace %d: controller invariants violated at the end: %v", u.traceSeed, u.violations)
	if d, seen := digests[u.traceSeed]; seen {
		o.check(d == u.digest, "trace %d: finish-time digest %016x differs from the first replay's %016x", u.traceSeed, u.digest, d)
	} else {
		digests[u.traceSeed] = u.digest
		fmt.Printf("replay: trace seed %d: %d jobs, finish-time digest %016x\n", u.traceSeed, u.jobs, u.digest)
	}
}

func runReplay(cfg runConfig) (*outcome, error) {
	spec := replaySize(cfg.tiny)
	o := newOutcome()
	digests := make(map[int64]uint64)
	if cfg.traced {
		return replayTraced(cfg, spec, o, digests)
	}
	var sm samples
	start := time.Now()
	for i := 0; !deadline(start, cfg.seconds, i, 2); i++ {
		u := replayOnce(spec, subSeed(cfg.seed, unitInput(i)), nil)
		checkReplay(o, u, digests)
		sm.setups = append(sm.setups, u.setup.Seconds())
		sm.units = append(sm.units, u.run.Seconds())
		sm.opSeconds += u.run.Seconds()
		sm.ops += u.completed
		sm.latencies = append(sm.latencies, u.jobLatency...)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.reportEndToEnd(sm, rss)
	return o, nil
}

// replayTraced replays one trace untraced (the Go runtime figures and the
// baseline run time) and then the same trace traced (the per-layer
// figures); the difference in run time is the tracing overhead.
func replayTraced(cfg runConfig, spec replaySpec, o *outcome, digests map[int64]uint64) (*outcome, error) {
	seed := subSeed(cfg.seed, 0)
	gs := startGoStats()
	plain := replayOnce(spec, seed, nil)
	gs.finish(o, plain.runner)
	checkReplay(o, plain, digests)
	plain.runner = nil

	tr := newTracer()
	u := replayOnce(spec, seed, tr)
	checkReplay(o, u, digests)
	lay := u.layers

	o.metrics["trace.generate_ms"] = millis(u.generate)
	o.metrics["sim.events"] = float64(u.runner.Engine().Steps())
	o.metrics["sim.pending_max"] = float64(lay.simPending)
	o.metrics["simrun.event_us_p50"] = quantile(lay.events, 0.50)
	o.metrics["simrun.event_us_p99"] = quantile(lay.events, 0.99)
	o.metrics["simrun.event_us_p50.backlog_lt1k"] = quantile(lay.backlog[0], 0.50)
	o.metrics["simrun.event_us_p50.backlog_1k_10k"] = quantile(lay.backlog[1], 0.50)
	o.metrics["simrun.event_us_p50.backlog_ge10k"] = quantile(lay.backlog[2], 0.50)
	o.metrics["core.launches"] = float64(lay.launches)
	o.metrics["core.aborts"] = float64(lay.aborts)
	o.metrics["core.resends"] = float64(lay.resends)
	o.metrics["core.restarts"] = float64(lay.restarts)
	if lay.launches > 0 {
		o.metrics["core.us_per_launch"] = micros(lay.launchEvents) / float64(lay.launches)
	}
	o.metrics["core.pending_max"] = float64(lay.pendingMax)
	o.metrics["core.sched_queue_max"] = float64(lay.queueMax)
	ctrl := u.runner.Controller()
	o.metrics["core.replica_hits"] = float64(ctrl.ReplicaRecoveries())
	o.metrics["core.recomputes"] = float64(ctrl.OutputRecomputes())
	o.metrics["core.reclaims"] = float64(ctrl.ReclaimedGangs())
	if span := (lay.queuedTo - lay.queuedFrom).Seconds(); span > 0 {
		o.metrics["cluster.busy_frac"] = (lay.busyAtTo - lay.busyAtFrom) / (span * float64(u.runner.Cluster().NumExecutors()))
	}
	lay.wrap.report(o, tr.byName())
	tr.report(o)
	o.metrics["bench.trace_overhead_s"] = u.run.Seconds() - plain.run.Seconds()
	return o, tr.write(spanPath(cfg, "replay"))
}
