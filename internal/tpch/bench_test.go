package tpch

import (
	"fmt"
	"sort"
	"testing"

	"swift/internal/engine"
)

// BenchmarkTPCHLiteEngine runs the TPC-H-lite queries end to end on the
// real engine — scan, shuffle, join, aggregate, top-k with the controller
// scheduling every task — so data-plane regressions show up in a whole-
// query number, not just the operator microbenchmarks. ReportAllocs makes
// the per-query allocation budget part of the bench trajectory.
func BenchmarkTPCHLiteEngine(b *testing.B) {
	e := engine.New(engine.DefaultConfig())
	defer e.Close()
	l := GenerateLite(0.3, 7, 4)
	for _, tab := range l.Tables() {
		e.RegisterTable(tab)
	}
	rows := float64(l.Lineitem.NumRows())
	// The controller rejects duplicate job ids and the harness re-runs
	// each sub-benchmark while ramping b.N, so ids come from a counter
	// that never resets.
	jobSeq := 0
	nextID := func(q string) string {
		jobSeq++
		return fmt.Sprintf("bench-%s-%d", q, jobSeq)
	}

	b.Run("Q1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			job, plans := LiteQ1(4, 3, "1998-09-02")
			job.ID = nextID("q1")
			if _, err := e.Run(job, plans); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "lineitems/s")
	})
	b.Run("Q6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			job, plans := LiteQ6(4, "1994-01-01", "1995-01-01")
			job.ID = nextID("q6")
			if _, err := e.Run(job, plans); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "lineitems/s")
	})
	b.Run("Q3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			job, plans := LiteQ3(4, 3, 10, "BUILDING", "1995-03-15")
			job.ID = nextID("q3")
			if _, err := e.Run(job, plans); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "lineitems/s")
	})
	b.Run("Q12", func(b *testing.B) {
		cut := medianTotalPrice(l)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, plans := LiteQ12(4, 3, "1994-01-01", "1995-01-01", cut)
			job.ID = nextID("q12")
			if _, err := e.Run(job, plans); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "lineitems/s")
	})
}

// medianTotalPrice is Q12's price threshold: half the orders rank high.
func medianTotalPrice(l *Lite) float64 {
	col := orCols.MustCol("o_totalprice")
	var totals []float64
	for _, part := range l.Orders.Partitions {
		for _, r := range part {
			totals = append(totals, r[col].(float64))
		}
	}
	sort.Float64s(totals)
	return totals[len(totals)/2]
}
