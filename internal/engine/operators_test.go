package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func intRow(vs ...int64) Row {
	r := make(Row, len(vs))
	for i, v := range vs {
		r[i] = v
	}
	return r
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{1.5, 2.5, -1},
		{int64(2), 1.5, 1},
		{1.5, int64(2), -1},
		{"a", "b", -1},
		{"b", "b", 0},
		{false, true, -1},
		{true, true, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("incomparable values did not panic")
		}
	}()
	Compare("x", int64(1))
}

func TestSchemaCol(t *testing.T) {
	s := Schema{"a", "b"}
	if s.Col("b") != 1 || s.Col("z") != -1 {
		t.Error("Col wrong")
	}
	if s.MustCol("a") != 0 {
		t.Error("MustCol wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCol on unknown did not panic")
		}
	}()
	s.MustCol("z")
}

func TestFilterProjectLimit(t *testing.T) {
	b := BatchFromRows([]Row{intRow(1), intRow(2), intRow(3), intRow(4)})
	vals := b.Cols[0].Ints
	even := FilterBatch(b, func(i int) bool { return vals[i]%2 == 0 })
	scaled := make([]int64, 0, even.Len)
	for _, i := range even.Sel {
		scaled = append(scaled, vals[i]*10)
	}
	got := TopKBatch(NewBatch(Int64Col(scaled)), nil, 1, false).Rows()
	if len(got) != 1 || got[0][0] != int64(20) {
		t.Errorf("got %v", got)
	}
	if all := TopKBatch(NewBatch(Int64Col(scaled)), nil, 5, false).Rows(); len(all) != 2 || all[1][0] != int64(40) {
		t.Errorf("limit above the row count: %v", all)
	}
}

func TestHashJoin(t *testing.T) {
	build := []Row{{int64(1), "a"}, {int64(2), "b"}, {int64(2), "c"}}
	probe := []Row{{int64(2), "x"}, {int64(3), "y"}, {int64(1), "z"}}
	got := HashJoinBatch(BatchFromRows(build), []int{0}, BatchFromRows(probe), []int{0}).Rows()
	// Probe row (2,x) matches both (2,b) and (2,c), in build order.
	want := []Row{
		{int64(2), "x", int64(2), "b"},
		{int64(2), "x", int64(2), "c"},
		{int64(1), "z", int64(1), "a"},
	}
	rowsEqual(t, "join", got, want)
}

// TestMergeJoin: a plan's MergeJoin operator (inner join of key-sorted
// inputs) runs on the batch join; every pair of equal keys must meet.
func TestMergeJoin(t *testing.T) {
	left := []Row{{int64(1), "l1"}, {int64(2), "l2"}, {int64(2), "l2b"}, {int64(4), "l4"}}
	right := []Row{{int64(2), "r2"}, {int64(2), "r2b"}, {int64(3), "r3"}, {int64(4), "r4"}}
	got := HashJoinBatch(BatchFromRows(right), []int{0}, BatchFromRows(left), []int{0}).Rows()
	// key 2: 2x2 = 4 pairs; key 4: 1 pair.
	rowsEqual(t, "merge join", got, joinRows(right, []int{0}, left, []int{0}))
	if len(got) != 5 {
		t.Fatalf("got %d rows: %v", len(got), got)
	}
}

// mergeRuns is a reduce task's merge of key-sorted runs (OpMergeSort): the
// runs concatenate in producer order and sort stably, so equal keys come
// from the earliest run first.
func mergeRuns(runs [][]Row, keys []int) []Row {
	batches := make([]*Batch, len(runs))
	for i, run := range runs {
		batches[i] = BatchFromRows(run)
	}
	return SortBatch(ConcatBatches(batches), keys).Rows()
}

func TestMergeSortedRuns(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var runs [][]Row
		var all []Row
		for i := 0; i < 1+r.Intn(5); i++ {
			run := make([]Row, r.Intn(20))
			for j := range run {
				run[j] = Row{int64(r.Intn(100)), int64(i)}
			}
			run = sortRows(run, []int{0})
			runs = append(runs, run)
			all = append(all, run...)
		}
		merged := mergeRuns(runs, []int{0})
		want := sortRows(all, []int{0})
		return len(merged) == len(want) && (len(want) == 0 || reflect.DeepEqual(merged, want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortedRunsManyRuns(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var runs [][]Row
	var all []Row
	for i := 0; i < 12; i++ {
		run := make([]Row, r.Intn(40))
		for j := range run {
			run[j] = Row{int64(r.Intn(50)), int64(i)}
		}
		run = sortRows(run, []int{0})
		runs = append(runs, run)
		all = append(all, run...)
	}
	rowsEqual(t, "merged runs", mergeRuns(runs, []int{0}), sortRows(all, []int{0}))
}

func TestHashAggregate(t *testing.T) {
	rows := []Row{
		{"a", int64(1)}, {"b", int64(2)}, {"a", int64(3)}, {"b", int64(4)}, {"a", int64(5)},
	}
	got := HashAggregateBatch(BatchFromRows(rows), []int{0}, []Agg{{AggSum, 1}, {AggCount, 1}, {AggMin, 1}, {AggMax, 1}})
	want := []Row{
		{"a", int64(9), int64(3), int64(1), int64(5)},
		{"b", int64(6), int64(2), int64(2), int64(4)},
	}
	rowsEqual(t, "aggregate", got.Rows(), want)
}

// TestStreamedAggregateMatchesHash: the hash aggregate must equal the
// streamed aggregate over sorted input (the oracle) on random row sets.
func TestStreamedAggregateMatchesHash(t *testing.T) {
	aggs := []Agg{{AggSum, 1}, {AggCount, 1}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(100)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{int64(r.Intn(6)), float64(r.Intn(10))}
		}
		hashed := HashAggregateBatch(BatchFromRows(rows), []int{0}, aggs).Rows()
		return reflect.DeepEqual(hashed, aggregateRows(rows, []int{0}, aggs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// mixedKey returns a random numeric key whose kind (int64 vs integral
// float64) is itself random — exercising the Hash normalization and the
// Compare-based equality used by joins and aggregates.
func mixedKey(r *rand.Rand, domain int) Value {
	k := r.Intn(domain)
	if r.Intn(2) == 0 {
		return int64(k)
	}
	return float64(k)
}

// TestHashJoinMixedNumericKeys: an int64 build column joined against a
// float64 probe column must match wherever Compare says the keys are
// equal (the Hash normalization regression), also when kinds mix within
// one column.
func TestHashJoinMixedNumericKeys(t *testing.T) {
	build := []Row{{int64(1), "b1"}, {int64(2), "b2"}, {int64(3), "b3"}}
	probe := []Row{{float64(2), "p2"}, {float64(3), "p3"}, {float64(9), "p9"}}
	got := HashJoinBatch(BatchFromRows(build), []int{0}, BatchFromRows(probe), []int{0}).Rows()
	rowsEqual(t, "int64 build, float64 probe", got, []Row{
		{float64(2), "p2", int64(2), "b2"},
		{float64(3), "p3", int64(3), "b3"},
	})

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := func(n int) []Row {
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = Row{mixedKey(r, 6), int64(i)}
			}
			return rows
		}
		build, probe := gen(r.Intn(30)), gen(r.Intn(30))
		got := HashJoinBatch(BatchFromRows(build), []int{0}, BatchFromRows(probe), []int{0}).Rows()
		return reflect.DeepEqual(got, joinRows(build, []int{0}, probe, []int{0}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHashAggregateMatchesStreamedMultiKey: the hash aggregate and the
// streamed oracle must agree on random multi-key, mixed-kind row sets.
func TestHashAggregateMatchesStreamedMultiKey(t *testing.T) {
	aggs := []Agg{{AggSum, 2}, {AggCount, 2}, {AggMin, 2}, {AggMax, 2}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(120)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{mixedKey(r, 4), string(rune('a' + r.Intn(3))), float64(r.Intn(10))}
		}
		hashed := HashAggregateBatch(BatchFromRows(rows), []int{0, 1}, aggs).Rows()
		return reflect.DeepEqual(hashed, aggregateRows(rows, []int{0, 1}, aggs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestHashAggregateMixedKindKeys: rows whose group key arrives sometimes
// as int64 and sometimes as float64 must land in one group.
func TestHashAggregateMixedKindKeys(t *testing.T) {
	rows := []Row{
		{int64(7), int64(1)},
		{float64(7), int64(10)},
		{int64(8), int64(100)},
	}
	got := HashAggregateBatch(BatchFromRows(rows), []int{0}, []Agg{{AggSum, 1}, {AggCount, 1}}).Rows()
	if len(got) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(got), got)
	}
	if got[0][1] != int64(11) || got[0][2] != int64(2) {
		t.Errorf("mixed-kind group folded to %v", got[0])
	}
}

// TestTopKMatchesSortOracle: the bounded heap must reproduce the
// stable-sort+truncate oracle exactly, including tie order, both ways.
func TestTopKMatchesSortOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(80)
		rows := make([]Row, n)
		for i := range rows {
			// Small key domain forces ties; second column is the input
			// position, which the oracle's stability preserves.
			rows[i] = Row{int64(r.Intn(8)), int64(i)}
		}
		k := r.Intn(20)
		desc := r.Intn(2) == 0
		got := TopKBatch(BatchFromRows(rows), []int{0}, k, desc).Rows()
		want := topKRows(rows, []int{0}, k, desc)
		return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTopKDesc(t *testing.T) {
	b := BatchFromRows([]Row{intRow(5), intRow(1), intRow(9), intRow(7)})
	got := TopKBatch(b, []int{0}, 2, true).Rows()
	if len(got) != 2 || got[0][0] != int64(9) || got[1][0] != int64(7) {
		t.Errorf("got %v", got)
	}
	// DESC reverses the stable ascending order as a whole, so ties list
	// the later input row first (ORDER BY ... DESC in the SQL sink).
	tied := BatchFromRows([]Row{{int64(3), "first"}, {int64(3), "second"}, {int64(1), "low"}})
	got = TopKBatch(tied, []int{0}, 2, true).Rows()
	if got[0][1] != "second" || got[1][1] != "first" {
		t.Errorf("tie order: %v", got)
	}
}

func TestTopK(t *testing.T) {
	b := BatchFromRows([]Row{intRow(5), intRow(1), intRow(3), intRow(2)})
	got := TopKBatch(b, []int{0}, 2, false).Rows()
	if len(got) != 2 || got[0][0] != int64(1) || got[1][0] != int64(2) {
		t.Errorf("got %v", got)
	}
	if got := TopKBatch(b, []int{0}, 10, false); got.Len != 4 {
		t.Errorf("k>len: %d rows", got.Len)
	}
	// Input not mutated.
	if b.Cols[0].Ints[0] != 5 {
		t.Error("TopKBatch mutated its input")
	}
}

func TestHashStability(t *testing.T) {
	a := Row{"key", int64(7), 1.5, true}
	b := Row{"key", int64(7), 1.5, true}
	if Hash(a, []int{0, 1, 2, 3}) != Hash(b, []int{0, 1, 2, 3}) {
		t.Error("equal rows hash differently")
	}
	if Hash(a, []int{0}) == Hash(Row{"other"}, []int{0}) {
		t.Error("suspicious collision") // not guaranteed, but this pair must differ
	}
}

func TestNewTablePartitioning(t *testing.T) {
	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = intRow(int64(i))
	}
	tab := NewTable("t", Schema{"x"}, rows, 3)
	if len(tab.Partitions) != 3 || tab.NumRows() != 10 {
		t.Errorf("partitions=%d rows=%d", len(tab.Partitions), tab.NumRows())
	}
	tab2 := NewTable("t2", Schema{"x"}, rows, 0)
	if len(tab2.Partitions) != 1 {
		t.Error("zero parts should clamp to 1")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{int64(1), "a"}
	c := r.Clone()
	c[0] = int64(9)
	if r[0] != int64(1) {
		t.Error("clone shares storage")
	}
}
