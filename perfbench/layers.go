package main

import (
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/sched"
	"swift/internal/shuffle"
)

// controllerWrap wraps the controller's pluggable entry points — the
// graphlet partitioner, the shuffle-mode selector and the scheduling
// policy — with spans, so the traced pass sees those layers' calls without
// any tracing inside the program. parent names the span the calls happen
// under (the current simulator event, or the whole soak).
type controllerWrap struct {
	tr     *tracer
	parent func() int32
	modes  [shuffle.Disk + 1]int64
}

// options returns o with every pluggable entry point wrapped; o comes from
// core.DefaultOptions, which sets the partitioner and the selector.
func (w *controllerWrap) options(o core.Options) core.Options {
	part := o.Partition
	o.Partition = func(j *dag.Job) ([]*graphlet.Graphlet, error) {
		id := w.tr.begin("graphlet.partition", w.parent())
		gs, err := part(j)
		w.tr.end(id)
		return gs, err
	}
	sel := o.Shuffle
	o.Shuffle = func(edgeSize int, bytes int64, crossing bool) shuffle.Mode {
		id := w.tr.begin("shuffle.select", w.parent())
		m := sel(edgeSize, bytes, crossing)
		w.tr.end(id)
		if m >= 0 && int(m) < len(w.modes) {
			w.modes[m]++
		}
		return m
	}
	if o.Policy != nil {
		o.Policy = &tracedPolicy{inner: o.Policy, w: w}
	}
	return o
}

// report adds the partitioner, shuffle and policy metrics from the spans.
func (w *controllerWrap) report(o *outcome, spans map[string]*spanStats) {
	if st := spans["graphlet.partition"]; st != nil {
		o.metrics["graphlet.partition_calls"] = float64(st.count)
		o.metrics["graphlet.partition_ms"] = millis(st.total)
	}
	if st := spans["shuffle.select"]; st != nil {
		o.metrics["shuffle.select_calls"] = float64(st.count)
	}
	o.metrics["shuffle.mode.direct"] = float64(w.modes[shuffle.Direct])
	o.metrics["shuffle.mode.local"] = float64(w.modes[shuffle.Local])
	o.metrics["shuffle.mode.remote"] = float64(w.modes[shuffle.Remote])
	if st := spans["sched.job_order"]; st != nil {
		o.metrics["sched.job_order_calls"] = float64(st.count)
		o.metrics["sched.job_order_ms"] = millis(st.total)
	}
	if st := spans["sched.proportion"]; st != nil {
		o.metrics["sched.proportion_ms"] = millis(st.total)
	}
	if st := spans["sched.preempt"]; st != nil {
		o.metrics["sched.preempt_ms"] = millis(st.total)
	}
}

// tracedPolicy times each decision of a scheduling policy. Wrapping makes
// the controller take its policy path, so only non-FIFO policies are
// wrapped: a FIFO run keeps its fast path and reads zero here.
type tracedPolicy struct {
	inner sched.Policy
	w     *controllerWrap
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) JobOrder(items []sched.Item, view sched.View) []sched.Grant {
	id := p.w.tr.begin("sched.job_order", p.w.parent())
	g := p.inner.JobOrder(items, view)
	p.w.tr.end(id)
	return g
}

func (p *tracedPolicy) Proportion(view sched.View) []sched.Share {
	id := p.w.tr.begin("sched.proportion", p.w.parent())
	s := p.inner.Proportion(view)
	p.w.tr.end(id)
	return s
}

func (p *tracedPolicy) Preempt(items []sched.Item, gangs []sched.Gang, view sched.View) []sched.Victim {
	id := p.w.tr.begin("sched.preempt", p.w.parent())
	v := p.inner.Preempt(items, gangs, view)
	p.w.tr.end(id)
	return v
}
