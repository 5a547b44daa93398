package main

import (
	"time"

	"swift/internal/chaos"
	"swift/internal/core"
	"swift/internal/flow"
	"swift/internal/obs"
	"swift/internal/sched"
	"swift/internal/sim"
	"swift/internal/trace"
)

// fault-storm: a 3-tenant trace (weights 2:1:1, tenant b bursting 10x,
// tenant c quota-capped) run through chaos.Run under the fair-share policy,
// 3-way shuffle replication, a flow admission plane, the default fault
// profile and an attached obs recorder. Scheduling goes through the policy
// path instead of the FIFO fast path, and the run exercises recovery
// (abort, resend, replica promotion), admission queueing and obs recording.
//
// The fault profile has no application errors, the retry budget outlasts
// the storm and the admission queue holds every job, so no job may fail or
// be shed: any failed, unfinished or shed job is a regression, not an
// expected outcome. The in-flight budget is flow's default (4x the
// executors): the burst still queues at the admission plane on about 40% of
// soaks, while a budget of 1x lets a near-2,000-task job at the head of the
// FIFO queue hold every later job back until the few admitted jobs finish.
// The whole fault storm then lands on those few tasks, and a task crashed
// eleven times or slowed by six compounding stragglers fails its job or
// outlives the horizon (about one soak in 1,500).
//
// Unit of work: one soak, from the first submission to quiescence.
// Operation: one job. chaos.Run offers no hook at job completion, so the
// op latency here is the simulated job latency the recorder stamps (the
// paper's job-latency-under-failure figure) rather than a wall time: a
// change that only makes the program faster leaves it unchanged, and one
// that makes recovery slower raises it.

// stormRetries is the per-task retry budget. The default (3) lets a task
// that the storm happens to hit four times fail its job on a few seeds in a
// hundred.
const stormRetries = 10

type stormSpec struct {
	machines, execs int
	tenants         []trace.TenantSpec
	quota           int
	checkEvery      int
}

func stormSize(tiny bool) stormSpec {
	if tiny {
		return stormSpec{machines: 10, execs: 4, quota: 12, checkEvery: 1, tenants: []trace.TenantSpec{
			{Name: "a", Jobs: 6, Rate: 0.4},
			{Name: "b", Jobs: 6, Rate: 0.4, BurstAt: 5, BurstDur: 10, BurstFactor: 10},
			{Name: "c", Jobs: 4, ArrivalWindow: 30},
		}}
	}
	return stormSpec{machines: 100, execs: 20, quota: 400, checkEvery: 200, tenants: []trace.TenantSpec{
		{Name: "a", Jobs: 60, Rate: 2},
		{Name: "b", Jobs: 60, Rate: 2, BurstAt: 20, BurstDur: 10, BurstFactor: 10},
		{Name: "c", Jobs: 40, ArrivalWindow: 60},
	}}
}

func (s stormSpec) jobs() int {
	n := 0
	for _, t := range s.tenants {
		n += t.Jobs
	}
	return n
}

// config builds one soak's configuration. A nil recorder runs the soak
// without observability; wrap and flowReg, when set, instrument the
// controller's pluggable entry points and count admission decisions.
func (s stormSpec) config(seed int64, rec *obs.Recorder, wrap *controllerWrap, flowReg *obs.Registry) chaos.Config {
	o := core.DefaultOptions()
	o.Obs = rec
	o.ShuffleReplicas = 3
	o.MaxTaskRetries = stormRetries
	o.Policy = sched.NewFairShare(sched.FairShareConfig{Queues: []sched.QueueSpec{
		{Name: "a", Weight: 2},
		{Name: "b", Weight: 1},
		{Name: "c", Weight: 1, Quota: s.quota},
	}})
	if wrap != nil {
		o = wrap.options(o)
	}
	p := chaos.DefaultProfile()
	p.AppErrorFraction = 0
	return chaos.Config{
		Seed:                seed,
		Machines:            s.machines,
		ExecutorsPerMachine: s.execs,
		Horizon:             4 * 3600 * sim.Second,
		CheckEvery:          s.checkEvery,
		Profile:             &p,
		Options:             &o,
		Flow:                &flow.Config{MaxQueue: s.jobs(), Metrics: flowReg},
		Tenants:             s.tenants,
		TenantQuotas:        map[string]int{"c": s.quota},
	}
}

// stormUnit is one soak's measurements.
type stormUnit struct {
	seed       int64
	setup      time.Duration
	generate   time.Duration
	run        time.Duration
	expected   int // jobs the generated trace holds
	res        *chaos.Result
	rec        *obs.Recorder
	streamHash uint64
	hashTime   time.Duration
	jobLatency []float64 // simulated ms, admission to completion
	wrap       *controllerWrap
	flowReg    *obs.Registry
}

// stormOnce runs one soak. Set-up generates the same multi-tenant trace the
// soak will replay, which gives the job count the outputs are checked
// against, and builds the configuration.
func stormOnce(spec stormSpec, seed int64, withObs bool, tr *tracer) *stormUnit {
	u := &stormUnit{seed: seed}
	t0 := time.Now()
	gen := tr.begin("trace.generate", noSpan)
	tc := trace.Generate(trace.Spec{Seed: seed, Tenants: spec.tenants})
	tr.end(gen)
	u.generate = time.Since(t0)
	u.expected = len(tc.Jobs)
	if withObs {
		u.rec = obs.New()
	}
	root := noSpan
	if tr != nil {
		u.wrap = &controllerWrap{tr: tr, parent: func() int32 { return root }}
		u.flowReg = obs.NewRegistry()
	}
	cfg := spec.config(seed, u.rec, u.wrap, u.flowReg)
	u.setup = time.Since(t0)

	t1 := time.Now()
	root = tr.begin("chaos.run", noSpan)
	u.res = chaos.Run(cfg)
	tr.end(root)
	u.run = time.Since(t1)

	t2 := time.Now()
	h := tr.begin("obs.stream_hash", noSpan)
	u.streamHash = u.rec.StreamHash()
	tr.end(h)
	u.hashTime = time.Since(t2)

	submitted := make(map[string]sim.Time)
	for _, e := range u.rec.Events() {
		switch e.Kind {
		case obs.EvJobSubmit:
			submitted[e.Job] = e.T
		case obs.EvJobDone:
			u.jobLatency = append(u.jobLatency, 1e3*(e.T-submitted[e.Job]).Seconds())
		}
	}
	return u
}

// failedJobs counts the soak's jobs that did not complete: failed,
// unfinished at the horizon, shed or still queued.
func (u *stormUnit) failedJobs() int {
	r := u.res
	return r.Failed + r.Unfinished + r.FlowShed + r.FlowQueuedEnd
}

// checkStorm applies the fault-storm output checks to one soak: no auditor
// violation, every job completes, and a soak repeated with the same seed
// reproduces both the controller trace hash and the obs stream hash.
func checkStorm(o *outcome, u *stormUnit, prev *stormUnit) {
	r := u.res
	o.attempted += int64(u.expected)
	o.failed += int64(u.failedJobs())
	o.check(len(r.Violations) == 0, "seed %d: %d auditor violations, first: %v", u.seed, len(r.Violations), firstOf(r.Violations))
	o.check(r.Jobs == u.expected, "seed %d: soak ran %d jobs, the trace holds %d", u.seed, r.Jobs, u.expected)
	o.check(r.Completed == u.expected, "seed %d: %d of %d jobs completed (failed %d, unfinished %d, shed %d, queued at the end %d)",
		u.seed, r.Completed, u.expected, r.Failed, r.Unfinished, r.FlowShed, r.FlowQueuedEnd)
	o.check(r.Quiesced, "seed %d: the soak did not quiesce within its step budget", u.seed)
	if prev != nil {
		o.check(prev.res.TraceHash == r.TraceHash, "seed %d: trace hash %016x differs from the first run's %016x", u.seed, r.TraceHash, prev.res.TraceHash)
		o.check(prev.streamHash == u.streamHash, "seed %d: obs stream hash %016x differs from the first run's %016x", u.seed, u.streamHash, prev.streamHash)
	}
}

func firstOf(xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	return xs[0]
}

func runFaultStorm(cfg runConfig) (*outcome, error) {
	spec := stormSize(cfg.tiny)
	o := newOutcome()
	if cfg.traced {
		return stormTraced(cfg, spec, o)
	}
	var sm samples
	var p99s []float64
	var first *stormUnit
	start := time.Now()
	for i := 0; !deadline(start, cfg.seconds, i, 2); i++ {
		u := stormOnce(spec, subSeed(cfg.seed, unitInput(i)), true, nil)
		var again *stormUnit
		if i == 1 {
			again = first
		}
		checkStorm(o, u, again)
		if i == 0 {
			first = u
		}
		sm.setups = append(sm.setups, u.setup.Seconds())
		sm.units = append(sm.units, u.run.Seconds())
		sm.opSeconds += u.run.Seconds()
		sm.ops += u.res.Completed
		sm.latencies = append(sm.latencies, u.jobLatency...)
		p99s = append(p99s, quantile(u.jobLatency, 0.99))
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.reportEndToEnd(sm, rss)
	// Soaks are short next to the host's and the collector's pauses, which
	// jitter each soak's wall time by about 10%: the mean soak time cancels
	// that jitter, where the median of a few dozen soaks jumps with it.
	o.metrics["run_s"] = sm.opSeconds / float64(len(sm.units))
	// A soak's latency tail is set by the few heavy-tail jobs its seed
	// draws, so pooling every soak's jobs lets one heavy soak set the run's
	// p99. The median soak's p99 is steadier across seeds; the pooled p50
	// is steadier than the median soak's.
	o.metrics["op_p99_ms"] = median(p99s)
	return o, nil
}

// stormTraced runs one seed three times: untraced with the recorder (the Go
// runtime figures and the baseline), untraced without it (the obs
// overhead), and traced with it (the per-layer figures).
func stormTraced(cfg runConfig, spec stormSpec, o *outcome) (*outcome, error) {
	seed := subSeed(cfg.seed, 0)
	gs := startGoStats()
	plain := stormOnce(spec, seed, true, nil)
	gs.finish(o, plain.rec)
	checkStorm(o, plain, nil)
	bare := stormOnce(spec, seed, false, nil)
	o.check(bare.res.TraceHash == plain.res.TraceHash, "seed %d: attaching the obs recorder changed the trace hash", seed)

	tr := newTracer()
	u := stormOnce(spec, seed, true, tr)
	checkStorm(o, u, plain)
	r := u.res
	o.metrics["trace.generate_ms"] = millis(u.generate)
	var launches, aborts int
	for _, e := range u.rec.Events() {
		switch e.Kind {
		case obs.EvTaskStart:
			launches++
		case obs.EvTaskAbort:
			aborts++
		}
	}
	o.metrics["core.launches"] = float64(launches)
	o.metrics["core.aborts"] = float64(aborts)
	o.metrics["core.resends"] = float64(r.Resends)
	o.metrics["core.restarts"] = float64(r.Restarts)
	o.metrics["core.replica_hits"] = float64(r.ReplicaHits)
	o.metrics["core.recomputes"] = float64(r.Recomputes)
	o.metrics["core.reclaims"] = float64(r.Reclaims)
	o.metrics["flow.admitted"] = float64(r.FlowAdmitted)
	o.metrics["flow.queued"] = float64(u.flowReg.Counter("flow.queued"))
	o.metrics["flow.shed"] = float64(r.FlowShed)
	o.metrics["obs.events"] = float64(len(u.rec.Events()))
	o.metrics["obs.stream_hash_ms"] = millis(u.hashTime)
	o.metrics["obs.overhead_s"] = plain.run.Seconds() - bare.run.Seconds()
	o.metrics["chaos.faults_injected"] = float64(r.Injected.Total())
	u.wrap.report(o, tr.byName())
	tr.report(o)
	o.metrics["bench.trace_overhead_s"] = u.run.Seconds() - plain.run.Seconds()
	return o, tr.write(spanPath(cfg, "fault-storm"))
}
