package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestHashNumericNormalization pins the mixed-kind key contract: values
// that Compare treats as equal must hash (and therefore partition)
// identically, whatever numeric kind carries them.
func TestHashNumericNormalization(t *testing.T) {
	equalPairs := [][2]Value{
		{int64(3), float64(3)},
		{int64(0), float64(0)},
		{int64(0), math.Copysign(0, -1)}, // -0.0 compares equal to 0
		{int64(-42), float64(-42)},
		{int64(1 << 40), float64(1 << 40)},
		{float64(2.5), float64(2.5)},
	}
	for _, p := range equalPairs {
		ha := Hash(Row{p[0]}, []int{0})
		hb := Hash(Row{p[1]}, []int{0})
		if ha != hb {
			t.Errorf("Hash(%v %T) = %x but Hash(%v %T) = %x; Compare-equal values must hash equal",
				p[0], p[0], ha, p[1], p[1], hb)
		}
	}
	distinctPairs := [][2]Value{
		{int64(3), float64(3.5)},
		{int64(3), float64(4)},
		{float64(1.5), float64(-1.5)},
		{"3", int64(3)}, // a string is never numeric-equal to a number
	}
	for _, p := range distinctPairs {
		if Hash(Row{p[0]}, []int{0}) == Hash(Row{p[1]}, []int{0}) {
			t.Errorf("suspicious collision between %v (%T) and %v (%T)", p[0], p[0], p[1], p[1])
		}
	}
	// Non-finite and huge floats must hash without panicking and stay
	// self-consistent.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 9.3e18} {
		if Hash(Row{v}, []int{0}) != Hash(Row{v}, []int{0}) {
			t.Errorf("hash of %v not deterministic", v)
		}
	}
}

// TestHashZeroAlloc pins the data plane's allocation budget: hashing the
// supported kinds must not allocate per row.
func TestHashZeroAlloc(t *testing.T) {
	row := Row{int64(123), "some-key", 2.718281828, true}
	keys := []int{0, 1, 2, 3}
	allocs := testing.AllocsPerRun(200, func() {
		Hash(row, keys)
	})
	if allocs != 0 {
		t.Errorf("Hash allocates %.1f times per row, want 0", allocs)
	}
}

// TestHashPropertyCompareEqualImpliesHashEqual drives the normalization
// with random numbers in both kinds.
func TestHashPropertyCompareEqualImpliesHashEqual(t *testing.T) {
	f := func(n int32) bool {
		a := Row{int64(n)}
		b := Row{float64(n)}
		return Hash(a, []int{0}) == Hash(b, []int{0})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSortRowsMatchesOracle sorts rows of each key kind through SortBatch
// (whose typed single-key lanes pick the column's comparator) and checks
// the stable-sort oracle's exact order.
func TestSortRowsMatchesOracle(t *testing.T) {
	gens := map[string]func(r *rand.Rand) Value{
		"int64":  func(r *rand.Rand) Value { return int64(r.Intn(10)) },
		"string": func(r *rand.Rand) Value { return string(rune('a' + r.Intn(6))) },
		"float64": func(r *rand.Rand) Value {
			return float64(r.Intn(10))
		},
		"mixed": func(r *rand.Rand) Value {
			if r.Intn(2) == 0 {
				return int64(r.Intn(10))
			}
			return float64(r.Intn(10))
		},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				n := r.Intn(60)
				rows := make([]Row, n)
				for i := range rows {
					// Second column is the input position, so the oracle
					// comparison also checks stability.
					rows[i] = Row{gen(r), int64(i)}
				}
				want := sortRows(rows, []int{0})
				got := SortBatch(BatchFromRows(rows), []int{0}).Rows()
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSortRowsMultiKey(t *testing.T) {
	rows := []Row{
		{int64(2), "b", int64(0)},
		{int64(1), "z", int64(1)},
		{int64(2), "a", int64(2)},
		{int64(1), "a", int64(3)},
	}
	rows = SortBatch(BatchFromRows(rows), []int{0, 1}).Rows()
	want := []int64{3, 1, 2, 0} // positions after (col0, col1) sort
	for i, w := range want {
		if rows[i][2] != w {
			t.Fatalf("row %d = %v, want position %d", i, rows[i], w)
		}
	}
}

func TestPartitionByKey(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = Row{int64(r.Intn(40)), int64(i)}
	}
	const n = 7
	parts := PartitionBatchByKey(BatchFromRows(rows), []int{0}, n)
	if len(parts) != n {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for p, part := range parts {
		total += part.Len
		for _, row := range part.Rows() {
			if got := int(Hash(row, []int{0}) % n); got != p {
				t.Fatalf("row %v in partition %d, hashes to %d", row, p, got)
			}
		}
	}
	if total != len(rows) {
		t.Fatalf("partitions hold %d rows, want %d", total, len(rows))
	}
	// Mixed-kind keys that compare equal co-locate.
	a := PartitionBatchByKey(BatchFromRows([]Row{{int64(3)}}), []int{0}, n)
	b := PartitionBatchByKey(BatchFromRows([]Row{{float64(3)}}), []int{0}, n)
	pa, pb := -1, -1
	for i := 0; i < n; i++ {
		if a[i].Len > 0 {
			pa = i
		}
		if b[i].Len > 0 {
			pb = i
		}
	}
	if pa != pb {
		t.Errorf("int64(3) lands in partition %d but float64(3) in %d", pa, pb)
	}
	// Single-consumer fan-out short-circuits.
	if one := PartitionBatchByKey(BatchFromRows(rows), []int{0}, 1); len(one) != 1 || one[0].Len != len(rows) {
		t.Error("n=1 must yield one full partition")
	}
}

func TestPartitionByRange(t *testing.T) {
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{int64(i)})
	}
	bounds := []Row{{int64(25)}, {int64(50)}, {int64(75)}}
	parts := PartitionBatchByRange(BatchFromRows(rows), []int{0}, bounds)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	for p, part := range parts {
		if part.Len != 25 {
			t.Errorf("partition %d has %d rows", p, part.Len)
		}
		for _, v := range part.Cols[0].Ints {
			if p < len(bounds) && v >= int64(25*(p+1)) {
				t.Errorf("row %d above bound in partition %d", v, p)
			}
			if v < int64(25*p) {
				t.Errorf("row %d below partition %d", v, p)
			}
		}
	}
	if one := PartitionBatchByRange(BatchFromRows(rows), []int{0}, nil); len(one) != 1 || one[0].Len != len(rows) {
		t.Error("no bounds must yield one full partition")
	}
}

// TestPartitionBatchEmptyKeepsColumns: a partition without rows, and one
// past the table's last, read as zero-row batches with the table's column
// types, so a plan's Project and typed vector reads still work.
func TestPartitionBatchEmptyKeepsColumns(t *testing.T) {
	tab := NewTable("t", Schema{"k", "s"}, []Row{{int64(1), "a"}, {int64(2), "b"}}, 3)
	for _, i := range []int{2, 3, 7} {
		b := tab.PartitionBatch(i)
		if b.Len != 0 || b.NumCols() != 2 || b.Cols[0].Type != TInt64 || b.Cols[1].Type != TString {
			t.Fatalf("partition %d: %d rows, %d cols %v", i, b.Len, b.NumCols(), b.Cols)
		}
		if p := b.Project([]int{1}); p.Len != 0 || len(p.Cols[0].Strs) != 0 {
			t.Fatalf("partition %d: projection of the empty batch = %v", i, p)
		}
	}
	if b := tab.PartitionBatch(0); b.Len != 1 || b.Value(1, 0) != "a" {
		t.Fatalf("partition 0 = %v", b.Rows())
	}
	empty := &Table{Name: "e", Schema: Schema{"x", "y", "z"}, Partitions: make([][]Row, 2)}
	if b := empty.PartitionBatch(5); b.Len != 0 || b.NumCols() != 3 {
		t.Fatalf("rowless table: %d rows, %d cols", b.Len, b.NumCols())
	}
}
