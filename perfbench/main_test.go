package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swift/internal/dag"
	"swift/internal/engine"
	"swift/internal/sqlparse"
	"swift/internal/tpch"
)

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTablesMatchBenchmarkFile keeps the metric tables the program prints
// equal to BENCHMARK.json, and every workload there runnable.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s %s, the program %s %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s %s, the program %s %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

// TestPredictionsCoverPerLayer checks that predictions.json names every
// per-layer metric exactly once and cites only real metrics and workloads.
func TestPredictionsCoverPerLayer(t *testing.T) {
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Workloads   map[string]json.RawMessage `json:"workloads"`
		Predictions []struct {
			ID        string   `json:"id"`
			Moves     []string `json:"moves"`
			Workloads []string `json:"workloads"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	seen := map[string]int{}
	for _, pr := range p.Predictions {
		seen[pr.ID]++
		for _, m := range pr.Moves {
			if !e2e[m] {
				t.Errorf("prediction %s moves unknown end-to-end metric %q", pr.ID, m)
			}
		}
		for _, w := range pr.Workloads {
			if workloads[w] == nil {
				t.Errorf("prediction %s names unknown workload %q", pr.ID, w)
			}
		}
	}
	for _, m := range perLayer {
		if seen[m.name] != 1 {
			t.Errorf("per-layer metric %s has %d predictions, want 1", m.name, seen[m.name])
		}
	}
	for w := range workloads {
		if p.Workloads[w] == nil {
			t.Errorf("predictions.json does not describe workload %s", w)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs every workload at a tiny size in both
// modes and checks that the result line carries every metric of the mode's
// table with its unit, and that the outputs check clean.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 0.5, traced: traced, tiny: true, workdir: t.TempDir()}
			o, err := fn(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			var buf bytes.Buffer
			correct, err := emit(&buf, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !correct {
				t.Errorf("%s traced=%t: output checks failed: %v", name, traced, o.problems)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%t: result line: %v", name, traced, err)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			if len(res.Metrics) != len(table) || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%t: %d metrics, attempted %d, failed %d", name, traced, len(res.Metrics), res.Attempted, res.Failed)
			}
			for _, m := range table {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(spanPath(cfg, name)); err != nil {
					t.Errorf("%s: spans not written: %v", name, err)
				}
			}
		}
	}
}

// TestReplayChecksFail feeds the replay checks a wrong digest, a missing
// job and an invariant violation.
func TestReplayChecksFail(t *testing.T) {
	good := replayOnce(replaySize(true), 5, nil)
	o := newOutcome()
	digests := map[int64]uint64{}
	checkReplay(o, good, digests)
	checkReplay(o, good, digests)
	if len(o.problems) != 0 {
		t.Fatalf("clean replay reported %v", o.problems)
	}
	for name, mutate := range map[string]func(u *replayUnit){
		"digest":     func(u *replayUnit) { u.digest++ },
		"unfinished": func(u *replayUnit) { u.completed-- },
		"invariants": func(u *replayUnit) { u.violations = []string{"stuck graphlet"} },
	} {
		bad := *good
		mutate(&bad)
		o := newOutcome()
		checkReplay(o, &bad, map[int64]uint64{good.traceSeed: good.digest})
		if len(o.problems) == 0 {
			t.Errorf("%s: replay check passed a wrong output", name)
		}
	}
}

// TestStormChecksFail feeds the fault-storm checks a differing trace hash,
// a differing stream hash, a violation and a failed job.
func TestStormChecksFail(t *testing.T) {
	good := stormOnce(stormSize(true), 5, true, nil)
	o := newOutcome()
	checkStorm(o, good, good)
	if len(o.problems) != 0 || o.failed != 0 {
		t.Fatalf("clean soak reported %v (failed %d)", o.problems, o.failed)
	}
	for name, mutate := range map[string]func(u *stormUnit){
		"trace hash":  func(u *stormUnit) { r := *u.res; r.TraceHash++; u.res = &r },
		"stream hash": func(u *stormUnit) { u.streamHash++ },
		"violation":   func(u *stormUnit) { r := *u.res; r.Violations = []string{"lease leak"}; u.res = &r },
		"failed job":  func(u *stormUnit) { r := *u.res; r.Completed--; r.Failed++; u.res = &r },
	} {
		bad := *good
		mutate(&bad)
		o := newOutcome()
		checkStorm(o, &bad, good)
		if len(o.problems) == 0 {
			t.Errorf("%s: fault-storm check passed a wrong output", name)
		}
	}
}

// TestTPCHChecksFail runs every query once and checks its rows against the
// right reference (pass) and a perturbed one (fail).
func TestTPCHChecksFail(t *testing.T) {
	l := tpch.GenerateLite(tpchScale(true), 5, tpchParts)
	e := engine.New(engine.DefaultConfig())
	defer e.Close()
	for _, tab := range l.Tables() {
		e.RegisterTable(tab)
	}
	mustRun := func(job *dag.Job, plans engine.Plans) []engine.Row {
		t.Helper()
		rows, err := e.Run(job, plans)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows1 := mustRun(tpch.LiteQ1(tpchParts, 3, q1Cutoff))
	rows6 := mustRun(tpch.LiteQ6(tpchParts, q6Lo, q6Hi))
	rows3 := mustRun(tpch.LiteQ3(tpchParts, 3, q3TopK, q3Segment, q3Date))
	cut := medianTotalPrice(l)
	rows12 := mustRun(tpch.LiteQ12(tpchParts, 3, q12Lo, q12Hi, cut))
	stmt, err := sqlparse.Parse(sqlQuery)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sqlparse.Compile("sql-check", stmt, tpch.LiteSchemas["lineitem"], sqlparse.CompileOptions{ScanTasks: tpchParts, AggTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rowsSQL := mustRun(c.Job, c.Plans)

	q1 := tpch.LiteQ1Reference(l, q1Cutoff)
	q6 := tpch.LiteQ6Reference(l, q6Lo, q6Hi)
	q3 := topRevenues(tpch.LiteQ3Reference(l, q3Segment, q3Date), q3TopK)
	q12 := tpch.LiteQ12Reference(l, q12Lo, q12Hi, cut)
	sqlRef := supplierOracle(l, sqlTopK)
	for name, err := range map[string]error{
		"q1":  checkQ1(rows1, q1),
		"q6":  checkQ6(rows6, q6),
		"q3":  checkQ3(rows3, q3),
		"q12": checkQ12(rows12, q12),
		"sql": checkSupplier(rowsSQL, sqlRef),
	} {
		if err != nil {
			t.Errorf("%s against its reference: %v", name, err)
		}
	}

	for k, v := range q1 {
		v[0]++
		q1[k] = v
		break
	}
	for k, v := range q12 {
		v[1]++
		q12[k] = v
		break
	}
	q3[0].rev++
	sqlRef[0].n++
	for name, err := range map[string]error{
		"q1":  checkQ1(rows1, q1),
		"q6":  checkQ6(rows6, q6+1),
		"q3":  checkQ3(rows3, q3),
		"q12": checkQ12(rows12, q12),
		"sql": checkSupplier(rowsSQL, sqlRef),
	} {
		if err == nil {
			t.Errorf("%s check passed a wrong reference", name)
		}
	}
}
