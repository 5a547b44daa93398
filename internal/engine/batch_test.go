package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randRows builds kind-homogeneous columns (int64, float64, string, bool)
// plus one mixed column, each with ~15% NULLs, so every typed vector lane
// and the TAny escape hatch get exercised.
func randRows(r *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		row := Row{
			int64(r.Intn(20)),
			float64(r.Intn(100)) / 4,
			string(rune('a' + r.Intn(6))),
			r.Intn(2) == 0,
			nil, // mixed
		}
		// Mixed numeric kinds (comparable cross-kind, unlike string vs
		// number, which Compare rejects in both row and batch paths).
		switch r.Intn(3) {
		case 0:
			row[4] = int64(r.Intn(10))
		case 1:
			row[4] = float64(r.Intn(10))
		case 2:
			row[4] = float64(r.Intn(10)) + 0.5
		}
		for c := 0; c < 4; c++ {
			if r.Intn(7) == 0 {
				row[c] = nil
			}
		}
		if r.Intn(7) == 0 {
			row[4] = nil
		}
		rows[i] = row
	}
	return rows
}

func rowsEqual(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %#v, want %#v", what, i, got[i], want[i])
		}
	}
}

func TestCompareNilTotal(t *testing.T) {
	if Compare(nil, nil) != 0 {
		t.Error("Compare(nil, nil) != 0")
	}
	for _, v := range []Value{int64(0), int64(-5), float64(0), "", "a", false, true} {
		if Compare(nil, v) != -1 {
			t.Errorf("Compare(nil, %#v) = %d, want -1", v, Compare(nil, v))
		}
		if Compare(v, nil) != 1 {
			t.Errorf("Compare(%#v, nil) = %d, want 1", v, Compare(v, nil))
		}
	}
	// NULL sorts first.
	rows := SortBatch(BatchFromRows([]Row{{int64(2)}, {nil}, {int64(1)}, {nil}}), []int{0}).Rows()
	if rows[0][0] != nil || rows[1][0] != nil || rows[2][0] != int64(1) || rows[3][0] != int64(2) {
		t.Errorf("sorted = %v", rows)
	}
}

func TestBatchFromRowsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rows := randRows(r, 257) // not a multiple of 64: partial bitmap word
	b := BatchFromRows(rows)
	if b.Len != len(rows) || b.NumCols() != 5 {
		t.Fatalf("batch %dx%d", b.Len, b.NumCols())
	}
	wantTypes := []ColType{TInt64, TFloat64, TString, TBool, TAny}
	for c, w := range wantTypes {
		if b.Cols[c].Type != w {
			t.Errorf("col %d type = %v, want %v", c, b.Cols[c].Type, w)
		}
	}
	rowsEqual(t, "round trip", b.Rows(), rows)

	// Ragged rows: short rows read as NULL in the missing cells.
	ragged := []Row{{int64(1), "x"}, {int64(2)}, nil}
	rb := BatchFromRows(ragged)
	if rb.Len != 3 || rb.NumCols() != 2 {
		t.Fatalf("ragged %dx%d", rb.Len, rb.NumCols())
	}
	if !rb.IsNull(1, 1) || !rb.IsNull(0, 2) || !rb.IsNull(1, 2) || rb.Value(1, 0) != "x" {
		t.Errorf("ragged cells: %v", rb.Rows())
	}
}

func TestHashBatchMatchesRowHash(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rows := randRows(r, 300)
	b := BatchFromRows(rows)
	for _, keys := range [][]int{{0}, {2}, {4}, {0, 1, 2, 3, 4}, {3, 2}} {
		dst := make([]uint64, b.Len)
		HashBatchInto(b, keys, dst)
		for i, row := range rows {
			if want := Hash(row, keys); dst[i] != want {
				t.Fatalf("keys %v row %d: batch hash %x, row hash %x", keys, i, dst[i], want)
			}
		}
	}
	// Numeric normalisation across vector types: int64 5 and float64 5.0
	// must co-hash whichever vector they sit in.
	ints := BatchFromRows([]Row{{int64(5)}})
	floats := BatchFromRows([]Row{{float64(5)}})
	hi := make([]uint64, 1)
	hf := make([]uint64, 1)
	HashBatchInto(ints, []int{0}, hi)
	HashBatchInto(floats, []int{0}, hf)
	if hi[0] != hf[0] {
		t.Error("int64 5 and float64 5.0 hash differently")
	}
}

func TestFilterBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rows := randRows(r, 200)
	b := BatchFromRows(rows)
	keep := func(i int) bool { return i%3 != 0 }
	var want []Row
	for i, row := range rows {
		if keep(i) {
			want = append(want, row)
		}
	}
	rowsEqual(t, "filter", FilterBatch(b, keep).Rows(), want)
	if got := FilterBatch(b, func(int) bool { return false }); got.Len != 0 {
		t.Errorf("empty filter kept %d rows", got.Len)
	}
}

func TestProjectAndGatherEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	rows := randRows(r, 100)
	b := BatchFromRows(rows)
	p := b.Project([]int{4, 0, 0, 2})
	var want []Row
	for _, row := range rows {
		want = append(want, Row{row[4], row[0], row[0], row[2]})
	}
	rowsEqual(t, "project", p.Rows(), want)

	sel := []int32{99, 0, 50, 50, 7}
	g := b.Gather(sel)
	want = want[:0]
	for _, i := range sel {
		want = append(want, rows[i])
	}
	rowsEqual(t, "gather", g.Rows(), want)
}

func TestSortBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, keys := range [][]int{{0}, {1}, {2}, {3}, {4}, {2, 0}, {4, 1, 0}} {
		rows := randRows(r, 150)
		got := SortBatch(BatchFromRows(rows), keys)
		rowsEqual(t, "sort", got.Rows(), sortRows(rows, keys))
	}
}

func TestHashJoinBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	build := randRows(r, 80)
	probe := randRows(r, 120)
	for _, tc := range []struct{ bk, pk []int }{
		{[]int{0}, []int{0}},
		{[]int{2, 3}, []int{2, 3}},
		{[]int{4}, []int{4}},
		{[]int{0}, []int{4}}, // cross-kind numeric keys
	} {
		got := HashJoinBatch(BatchFromRows(build), tc.bk, BatchFromRows(probe), tc.pk)
		rowsEqual(t, "join", got.Rows(), joinRows(build, tc.bk, probe, tc.pk))
	}
}

func TestHashAggregateBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rows := randRows(r, 400)
	for _, tc := range []struct {
		keys []int
		aggs []Agg
	}{
		{[]int{0}, []Agg{{AggSum, 1}, {AggCount, 0}}},
		{[]int{2}, []Agg{{AggSum, 0}, {AggMin, 1}, {AggMax, 1}}},
		{[]int{2, 3}, []Agg{{AggCount, 0}, {AggMin, 2}, {AggMax, 4}}},
		{[]int{4}, []Agg{{AggSum, 4}, {AggCount, 4}}}, // mixed-kind keys and inputs
		{[]int{0, 1, 2, 3, 4}, []Agg{{AggCount, 0}}},
		{[]int{3}, nil}, // distinct
	} {
		want := aggregateRows(rows, tc.keys, tc.aggs)
		got := HashAggregateBatch(BatchFromRows(rows), tc.keys, tc.aggs)
		if want == nil {
			if got.Len != 0 {
				t.Fatalf("empty aggregate returned %d rows", got.Len)
			}
			continue
		}
		rowsEqual(t, "aggregate", got.Rows(), want)
	}
	// Empty input.
	if got := HashAggregateBatch(&Batch{}, []int{0}, []Agg{{AggSum, 0}}); got.Len != 0 {
		t.Errorf("aggregate of empty batch = %d rows", got.Len)
	}
}

func TestWindowBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	rows := randRows(r, 120)
	for _, fn := range []WindowFunc{WinRowNumber, WinRank, WinDenseRank, WinRunningSum} {
		spec := WindowSpec{PartitionBy: []int{2}, OrderBy: []int{0}, Func: fn, ValueCol: 1}
		want := windowRows(rows, spec)
		got := WindowBatch(BatchFromRows(rows), spec)
		rowsEqual(t, "window", got.Rows(), want)
	}
}

func TestPartitionBatchByKeyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	rows := randRows(r, 300)
	for _, n := range []int{1, 2, 7} {
		wantParts := partitionRowsByKey(rows, []int{0, 2}, n)
		gotParts := PartitionBatchByKey(BatchFromRows(rows), []int{0, 2}, n)
		if len(gotParts) != len(wantParts) {
			t.Fatalf("n=%d: %d parts, want %d", n, len(gotParts), len(wantParts))
		}
		for p := range wantParts {
			rowsEqual(t, "partition", gotParts[p].Rows(), wantParts[p])
		}
	}
}

func TestPartitionBatchByRangeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	rows := randRows(r, 200)
	bounds := []Row{{int64(5)}, {int64(12)}}
	wantParts := partitionRowsByRange(rows, []int{0}, bounds)
	gotParts := PartitionBatchByRange(BatchFromRows(rows), []int{0}, bounds)
	if len(gotParts) != len(wantParts) {
		t.Fatalf("%d parts, want %d", len(gotParts), len(wantParts))
	}
	for p := range wantParts {
		rowsEqual(t, "range partition", gotParts[p].Rows(), wantParts[p])
	}
}

// TestTopKBatchEquivalence pins TopKBatch to its definition: the first k
// rows of the stable sort, reversed first for DESC — over ties, k = 0,
// k >= Len, NULL keys, a lazy input, and both directions.
func TestTopKBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	rows := randRows(r, 90) // small key domains: many ties; ~15% NULL keys
	b := BatchFromRows(rows)
	keep := func(i int) bool { return i%3 != 1 }
	lazy := FilterBatch(b, keep)
	var kept []Row
	for i, row := range rows {
		if keep(i) {
			kept = append(kept, row)
		}
	}
	for _, keys := range [][]int{{0}, {2}, {4}, {3, 0}, nil} {
		for _, k := range []int{0, 1, 7, 59, 60, 90, 200} {
			for _, desc := range []bool{false, true} {
				what := fmt.Sprintf("keys %v k=%d desc=%v", keys, k, desc)
				rowsEqual(t, what, TopKBatch(b, keys, k, desc).Rows(), topKRows(rows, keys, k, desc))
				rowsEqual(t, "lazy "+what, TopKBatch(lazy, keys, k, desc).Rows(), topKRows(kept, keys, k, desc))
			}
		}
	}
	if got := TopKBatch(&Batch{}, []int{0}, 5, true); got.Len != 0 {
		t.Errorf("top-k of an empty batch = %d rows", got.Len)
	}
}

func TestConcatBatches(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randRows(r, 70)
	b := randRows(r, 130)
	got := ConcatBatches([]*Batch{BatchFromRows(a), {}, BatchFromRows(b)})
	rowsEqual(t, "concat", got.Rows(), append(append([]Row(nil), a...), b...))

	// Kind mismatch across runs degrades the column to TAny without losing
	// values; an all-NULL run merges into any type.
	ints := BatchFromRows([]Row{{int64(1)}})
	strs := BatchFromRows([]Row{{"s"}})
	nulls := BatchFromRows([]Row{{nil}})
	m := ConcatBatches([]*Batch{ints, nulls, strs})
	if m.Cols[0].Type != TAny {
		t.Errorf("mixed concat type = %v", m.Cols[0].Type)
	}
	rowsEqual(t, "mixed concat", m.Rows(), []Row{{int64(1)}, {nil}, {"s"}})
	n := ConcatBatches([]*Batch{ints, nulls})
	if n.Cols[0].Type != TInt64 {
		t.Errorf("int+null concat type = %v", n.Cols[0].Type)
	}
	rowsEqual(t, "int+null concat", n.Rows(), []Row{{int64(1)}, {nil}})

	// Runs without rows keep their columns: an empty shuffle input still
	// has the key columns a kernel reads.
	none := ConcatBatches([]*Batch{nil, {}, ints.Gather(nil), strs.Gather(nil)})
	if none.Len != 0 || none.NumCols() != 1 || none.Cols[0].Type != TInt64 {
		t.Errorf("concat of empty runs = %d rows, %d cols", none.Len, none.NumCols())
	}
}
