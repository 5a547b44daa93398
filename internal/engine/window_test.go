package engine

import (
	"reflect"
	"testing"
)

func windowInput() []Row {
	return []Row{
		{"a", int64(3), 1.0},
		{"a", int64(1), 2.0},
		{"b", int64(2), 3.0},
		{"a", int64(1), 4.0},
		{"b", int64(5), 5.0},
	}
}

// window runs WindowBatch over rows and returns the result as rows.
func window(rows []Row, spec WindowSpec) []Row {
	return WindowBatch(BatchFromRows(rows), spec).Rows()
}

func lastCol(rows []Row) []Value {
	out := make([]Value, len(rows))
	for i, r := range rows {
		out[i] = r[len(r)-1]
	}
	return out
}

func TestWindowRowNumber(t *testing.T) {
	got := window(windowInput(), WindowSpec{PartitionBy: []int{0}, OrderBy: []int{1}, Func: WinRowNumber})
	want := []Value{int64(1), int64(2), int64(3), int64(1), int64(2)}
	if !reflect.DeepEqual(lastCol(got), want) {
		t.Errorf("row_number = %v, want %v", lastCol(got), want)
	}
	// Partition a sorted before b; within a, order keys 1,1,3.
	if got[0][0] != "a" || got[3][0] != "b" {
		t.Errorf("partition order wrong: %v", got)
	}
}

func TestWindowRankAndDenseRank(t *testing.T) {
	rank := window(windowInput(), WindowSpec{PartitionBy: []int{0}, OrderBy: []int{1}, Func: WinRank})
	// Partition a ordered by key: (1),(1),(3) -> ranks 1,1,3.
	want := []Value{int64(1), int64(1), int64(3), int64(1), int64(2)}
	if !reflect.DeepEqual(lastCol(rank), want) {
		t.Errorf("rank = %v, want %v", lastCol(rank), want)
	}
	dense := window(windowInput(), WindowSpec{PartitionBy: []int{0}, OrderBy: []int{1}, Func: WinDenseRank})
	wantD := []Value{int64(1), int64(1), int64(2), int64(1), int64(2)}
	if !reflect.DeepEqual(lastCol(dense), wantD) {
		t.Errorf("dense_rank = %v, want %v", lastCol(dense), wantD)
	}
}

func TestWindowRunningSum(t *testing.T) {
	got := window(windowInput(), WindowSpec{PartitionBy: []int{0}, OrderBy: []int{1}, Func: WinRunningSum, ValueCol: 2})
	// Partition a sorted: rows with value 2,4 (keys 1,1 stable) then 1.
	want := []Value{2.0, 6.0, 7.0, 3.0, 8.0}
	if !reflect.DeepEqual(lastCol(got), want) {
		t.Errorf("running sum = %v, want %v", lastCol(got), want)
	}
	// Input untouched.
	in := windowInput()
	if len(in[0]) != 3 {
		t.Error("input mutated")
	}
}

func TestWindowEmptyAndSinglePartition(t *testing.T) {
	empty := BatchFromRows([]Row{{int64(1)}}).Gather(nil)
	if got := WindowBatch(empty, WindowSpec{OrderBy: []int{0}, Func: WinRowNumber}); got.Len != 0 || got.NumCols() != 2 {
		t.Errorf("empty input gave %d rows x %d cols", got.Len, got.NumCols())
	}
	rows := []Row{{int64(2)}, {int64(1)}}
	got := window(rows, WindowSpec{OrderBy: []int{0}, Func: WinRowNumber})
	if got[0][0] != int64(1) || got[0][1] != int64(1) || got[1][1] != int64(2) {
		t.Errorf("single partition = %v", got)
	}
}
