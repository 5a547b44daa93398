package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/dag"
	"swift/internal/engine"
	"swift/internal/sqlparse"
	"swift/internal/tpch"
)

// tpch: tpch-lite Q1, Q3, Q6 and Q12 plus one query compiled by
// sqlparse.Compile, run on the real goroutine engine (DefaultConfig) in a
// closed loop. The data plane (batch kernels, codec, Store) does the work
// and the controller does little.
//
// Unit of work: one batch of tpchRounds rounds of the five queries, issued
// by tpchClients closed-loop clients. Operation: one query; its latency runs
// from building the query (plan construction, SQL compilation) to its rows.

const (
	// tpchClients is the number of queries outstanding at once. One client
	// keeps a query's latency its own: on the 2-core machines the benchmark
	// was sized on, a second client doubled the median and made the tail
	// noisy without raising throughput.
	tpchClients = 1
	tpchRounds  = 4
	tpchParts   = 4 // table partitions = scan tasks
	// tpchSetups is how many times set-up runs; setup_s is their median.
	tpchSetups = 3
)

const (
	q1Cutoff   = "1998-09-02"
	q6Lo, q6Hi = "1994-01-01", "1995-01-01"
	q3Segment  = "BUILDING"
	q3Date     = "1995-03-15"
	q3TopK     = 10
	q12Lo      = "1994-01-01"
	q12Hi      = "1995-01-01"
	sqlTopK    = 10
	sqlQuery   = `SELECT l_suppkey, sum(l_extendedprice) AS rev, count(*) AS n FROM lineitem GROUP BY l_suppkey ORDER BY rev DESC LIMIT 10`
)

// tpchQuery is one query of the mix: how to build it and how to check its
// rows against the reference computed at set-up.
type tpchQuery struct {
	name  string
	build func(id string, tr *tracer, parent int32) (*dag.Job, engine.Plans, error)
	check func(rows []engine.Row) error
}

// tpchSetup is a loaded engine plus the query mix with its references.
type tpchSetup struct {
	eng     *engine.Engine
	queries []tpchQuery
}

func tpchScale(tiny bool) float64 {
	if tiny {
		return 0.05
	}
	return 1
}

// newTPCH generates the database, starts an engine over it and computes
// every query's reference result.
func newTPCH(sf float64, seed int64) (*tpchSetup, error) {
	l := tpch.GenerateLite(sf, seed, tpchParts)
	e := engine.New(engine.DefaultConfig())
	for _, t := range l.Tables() {
		e.RegisterTable(t)
	}
	priceCut := medianTotalPrice(l)
	q1 := tpch.LiteQ1Reference(l, q1Cutoff)
	q6 := tpch.LiteQ6Reference(l, q6Lo, q6Hi)
	q3 := topRevenues(tpch.LiteQ3Reference(l, q3Segment, q3Date), q3TopK)
	q12 := tpch.LiteQ12Reference(l, q12Lo, q12Hi, priceCut)
	sqlRef := supplierOracle(l, sqlTopK)
	if len(q3) < q3TopK || len(q1) == 0 || q6 == 0 || len(q12) == 0 {
		e.Close()
		return nil, fmt.Errorf("tpch-lite at sf=%g has too few qualifying rows for the query mix", sf)
	}
	schema := tpch.LiteSchemas["lineitem"]
	s := &tpchSetup{eng: e, queries: []tpchQuery{
		{name: "q1",
			build: func(id string, _ *tracer, _ int32) (*dag.Job, engine.Plans, error) {
				job, plans := tpch.LiteQ1(tpchParts, 3, q1Cutoff)
				job.ID = id
				return job, plans, nil
			},
			check: func(rows []engine.Row) error { return checkQ1(rows, q1) }},
		{name: "q6",
			build: func(id string, _ *tracer, _ int32) (*dag.Job, engine.Plans, error) {
				job, plans := tpch.LiteQ6(tpchParts, q6Lo, q6Hi)
				job.ID = id
				return job, plans, nil
			},
			check: func(rows []engine.Row) error { return checkQ6(rows, q6) }},
		{name: "q3",
			build: func(id string, _ *tracer, _ int32) (*dag.Job, engine.Plans, error) {
				job, plans := tpch.LiteQ3(tpchParts, 3, q3TopK, q3Segment, q3Date)
				job.ID = id
				return job, plans, nil
			},
			check: func(rows []engine.Row) error { return checkQ3(rows, q3) }},
		{name: "q12",
			build: func(id string, _ *tracer, _ int32) (*dag.Job, engine.Plans, error) {
				job, plans := tpch.LiteQ12(tpchParts, 3, q12Lo, q12Hi, priceCut)
				job.ID = id
				return job, plans, nil
			},
			check: func(rows []engine.Row) error { return checkQ12(rows, q12) }},
		{name: "sql",
			build: func(id string, tr *tracer, parent int32) (*dag.Job, engine.Plans, error) {
				sp := tr.begin("sqlparse.compile", parent)
				defer tr.end(sp)
				stmt, err := sqlparse.Parse(sqlQuery)
				if err != nil {
					return nil, nil, err
				}
				c, err := sqlparse.Compile(id, stmt, schema, sqlparse.CompileOptions{ScanTasks: tpchParts, AggTasks: 2})
				if err != nil {
					return nil, nil, err
				}
				return c.Job, c.Plans, nil
			},
			check: func(rows []engine.Row) error { return checkSupplier(rows, sqlRef) }},
	}}
	return s, nil
}

func medianTotalPrice(l *tpch.Lite) float64 {
	col := tpch.LiteSchemas["orders"].MustCol("o_totalprice")
	var totals []float64
	for _, part := range l.Orders.Partitions {
		for _, r := range part {
			totals = append(totals, r[col].(float64))
		}
	}
	sort.Float64s(totals)
	return totals[len(totals)/2]
}

// revenue is one ranked (key, revenue) pair.
type revenue struct {
	key int64
	rev float64
	n   int64
}

// topRevenues ranks a reference by revenue, descending, key ascending on
// ties, and keeps the first k.
func topRevenues(ref map[int64]float64, k int) []revenue {
	out := make([]revenue, 0, len(ref))
	for key, rev := range ref {
		out = append(out, revenue{key: key, rev: rev})
	}
	sortRevenues(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sortRevenues(rs []revenue) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].rev != rs[j].rev {
			return rs[i].rev > rs[j].rev
		}
		return rs[i].key < rs[j].key
	})
}

// supplierOracle is the naive oracle for sqlQuery: revenue and row count
// per supplier over the raw rows, top k by revenue.
func supplierOracle(l *tpch.Lite, k int) []revenue {
	sch := tpch.LiteSchemas["lineitem"]
	supp, price := sch.MustCol("l_suppkey"), sch.MustCol("l_extendedprice")
	acc := map[int64]*revenue{}
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			key := r[supp].(int64)
			a := acc[key]
			if a == nil {
				a = &revenue{key: key}
				acc[key] = a
			}
			a.rev += r[price].(float64)
			a.n++
		}
	}
	out := make([]revenue, 0, len(acc))
	for _, a := range acc {
		out = append(out, *a)
	}
	sortRevenues(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

func checkQ1(rows []engine.Row, want map[[2]string][4]float64) error {
	if len(rows) != len(want) {
		return fmt.Errorf("q1: %d groups, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		k := [2]string{r[0].(string), r[1].(string)}
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("q1: unexpected group %v", k)
		}
		got := [4]float64{r[2].(float64), r[3].(float64), r[4].(float64), float64(r[5].(int64))}
		for i := range got {
			if !near(got[i], w[i]) {
				return fmt.Errorf("q1: group %v aggregate %d = %v, want %v", k, i, got[i], w[i])
			}
		}
	}
	return nil
}

func checkQ6(rows []engine.Row, want float64) error {
	if len(rows) != 1 || !near(rows[0][0].(float64), want) {
		return fmt.Errorf("q6: rows %v, want revenue %v", rows, want)
	}
	return nil
}

func checkQ3(rows []engine.Row, want []revenue) error {
	if len(rows) != len(want) {
		return fmt.Errorf("q3: %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if !near(r[1].(float64), want[i].rev) {
			return fmt.Errorf("q3: rank %d revenue %v, want %v", i, r[1], want[i].rev)
		}
	}
	return nil
}

func checkQ12(rows []engine.Row, want map[string][2]int64) error {
	if len(rows) != len(want) {
		return fmt.Errorf("q12: %d groups, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		status := r[0].(string)
		w, ok := want[status]
		if !ok || r[1].(int64) != w[0] || r[2].(int64) != w[1] {
			return fmt.Errorf("q12: status %q = (%v, %v), want %v", status, r[1], r[2], w)
		}
	}
	return nil
}

func checkSupplier(rows []engine.Row, want []revenue) error {
	if len(rows) != len(want) {
		return fmt.Errorf("sql: %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r[0].(int64) != want[i].key || !near(r[1].(float64), want[i].rev) || r[2].(int64) != want[i].n {
			return fmt.Errorf("sql: rank %d = %v, want (%d, %v, %d)", i, r, want[i].key, want[i].rev, want[i].n)
		}
	}
	return nil
}

// tpchBatch is one batch's measurements.
type tpchBatch struct {
	wall      time.Duration
	latencies []float64 // ms per query
	failed    int
	problems  []string
}

// tpchLayers collects the traced pass's engine observations.
type tpchLayers struct {
	tr       *tracer
	mu       sync.Mutex
	dispatch []float64 // ms from submission to the first task body
}

// runBatch issues tpchRounds rounds of the query mix from tpchClients
// closed-loop clients. seq numbers queries across the run so job ids stay
// unique in the engine.
func (s *tpchSetup) runBatch(seq *atomic.Int64, lay *tpchLayers) tpchBatch {
	total := int64(tpchRounds * len(s.queries))
	var next atomic.Int64
	var mu sync.Mutex
	var b tpchBatch
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < tpchClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				q := s.queries[i%int64(len(s.queries))]
				lat, err := s.runQuery(q, fmt.Sprintf("%s-%d", q.name, seq.Add(1)), lay)
				mu.Lock()
				if err != nil {
					b.failed++
					b.problems = append(b.problems, err.Error())
				} else {
					b.latencies = append(b.latencies, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	b.wall = time.Since(start)
	return b
}

// runQuery builds, runs and checks one query, returning its latency in ms.
func (s *tpchSetup) runQuery(q tpchQuery, id string, lay *tpchLayers) (float64, error) {
	var tr *tracer
	if lay != nil {
		tr = lay.tr
	}
	t0 := time.Now()
	root := tr.begin("engine.query", noSpan)
	job, plans, err := q.build(id, tr, root)
	if err != nil {
		tr.end(root)
		return 0, fmt.Errorf("%s: build: %w", id, err)
	}
	if lay != nil {
		plans = lay.wrap(plans, root, time.Now())
	}
	rows, err := s.eng.Run(job, plans)
	tr.end(root)
	lat := millis(time.Since(t0))
	if err != nil {
		return 0, fmt.Errorf("%s: run: %w", id, err)
	}
	if err := q.check(rows); err != nil {
		return 0, fmt.Errorf("%s: %w", id, err)
	}
	return lat, nil
}

// wrap times every task body of one query and records when the first one
// started.
func (lay *tpchLayers) wrap(plans engine.Plans, parent int32, submitted time.Time) engine.Plans {
	var once sync.Once
	out := make(engine.Plans, len(plans))
	for stage, fn := range plans {
		fn := fn
		out[stage] = func(ctx *engine.TaskContext) error {
			once.Do(func() {
				d := millis(time.Since(submitted))
				lay.mu.Lock()
				lay.dispatch = append(lay.dispatch, d)
				lay.mu.Unlock()
			})
			id := lay.tr.begin("engine.task", parent)
			err := fn(ctx)
			lay.tr.end(id)
			return err
		}
	}
	return out
}

// storeSink counts the Store's Cache Worker counters.
type storeSink struct {
	mu     sync.Mutex
	counts map[string]int64
}

func (s *storeSink) Count(name string, delta int64) {
	s.mu.Lock()
	s.counts[name] += delta
	s.mu.Unlock()
}

func (s *storeSink) get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// setupTPCH runs set-up tpchSetups times and keeps the last engine.
func setupTPCH(cfg runConfig) (*tpchSetup, []float64, error) {
	var times []float64
	var s *tpchSetup
	for i := 0; i < tpchSetups; i++ {
		if s != nil {
			s.eng.Close()
		}
		t0 := time.Now()
		var err error
		s, err = newTPCH(tpchScale(cfg.tiny), cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, times, nil
}

func (o *outcome) addBatch(b tpchBatch) {
	o.attempted += int64(len(b.latencies) + b.failed)
	o.failed += int64(b.failed)
	o.problems = append(o.problems, b.problems...)
}

func runTPCH(cfg runConfig) (*outcome, error) {
	s, setups, err := setupTPCH(cfg)
	if err != nil {
		return nil, err
	}
	defer s.eng.Close()
	o := newOutcome()
	if cfg.traced {
		return tpchTraced(cfg, s, o)
	}
	var seq atomic.Int64
	sm := samples{setups: setups}
	start := time.Now()
	for i := 0; !deadline(start, cfg.seconds, i, 2); i++ {
		b := s.runBatch(&seq, nil)
		o.addBatch(b)
		sm.units = append(sm.units, b.wall.Seconds())
		sm.opSeconds += b.wall.Seconds()
		sm.ops += len(b.latencies)
		sm.latencies = append(sm.latencies, b.latencies...)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.reportEndToEnd(sm, rss)
	return o, nil
}

// tpchTracedBatches is the traced pass's fixed amount of work, run once
// untraced and once traced.
const tpchTracedBatches = 5

func tpchTraced(cfg runConfig, s *tpchSetup, o *outcome) (*outcome, error) {
	var seq atomic.Int64
	gs := startGoStats()
	var plain time.Duration
	for i := 0; i < tpchTracedBatches; i++ {
		b := s.runBatch(&seq, nil)
		o.addBatch(b)
		plain += b.wall
	}
	gs.finish(o, s)

	sink := &storeSink{counts: make(map[string]int64)}
	s.eng.Store().SetStatsSink("", sink)
	lay := &tpchLayers{tr: newTracer()}
	var traced time.Duration
	for i := 0; i < tpchTracedBatches; i++ {
		b := s.runBatch(&seq, lay)
		o.addBatch(b)
		traced += b.wall
	}
	s.eng.Store().SetStatsSink("", nil)

	spans := lay.tr.byName()
	if st := spans["engine.task"]; st != nil {
		o.metrics["engine.tasks"] = float64(st.count)
		o.metrics["engine.task_ms_p50"] = quantile(st.durations, 0.50) / 1e3
		o.metrics["engine.task_ms_p99"] = quantile(st.durations, 0.99) / 1e3
		o.metrics["engine.task_busy_s"] = st.total.Seconds()
	}
	o.metrics["engine.dispatch_ms_p50"] = quantile(lay.dispatch, 0.50)
	if st := spans["sqlparse.compile"]; st != nil && st.count > 0 {
		o.metrics["sqlparse.compile_us"] = micros(st.total) / float64(st.count)
	}
	o.metrics["store.put_mb"] = float64(sink.get("put_bytes")) / (1 << 20)
	o.metrics["store.gets"] = float64(sink.get("gets"))
	o.metrics["store.spill_mb"] = float64(sink.get("spill_bytes")) / (1 << 20)
	lay.tr.report(o)
	o.metrics["bench.trace_overhead_s"] = traced.Seconds() - plain.Seconds()
	return o, lay.tr.write(spanPath(cfg, "tpch"))
}
