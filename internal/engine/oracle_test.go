package engine

import "sort"

// The naive row reference oracle. Every batch kernel is checked against
// these definitions (Test*Equivalence and the per-operator tests): each
// one is the plainest row-at-a-time statement of the kernel's contract —
// nested loops, a stable sort, a linear scan — with no shared code from
// the kernels beyond Compare and Hash, which define the engine's value
// ordering and partition placement.

// compareRows orders rows by the key columns under Compare.
func compareRows(a, b Row, keys []int) int {
	for _, k := range keys {
		if c := Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// sortRows returns a stably sorted copy of rows.
func sortRows(rows []Row, keys []int) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return compareRows(out[i], out[j], keys) < 0 })
	return out
}

// topKRows is the first k rows of the stable sort, reversed first for desc.
func topKRows(rows []Row, keys []int, k int, desc bool) []Row {
	out := sortRows(rows, keys)
	if desc {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	if k < len(out) {
		out = out[:max(k, 0)]
	}
	return out
}

// joinRows is the nested-loop inner join: for each probe row in order,
// every build row with Compare-equal keys in build order, emitted as
// probe ++ build.
func joinRows(build []Row, buildKeys []int, probe []Row, probeKeys []int) []Row {
	var out []Row
	for _, p := range probe {
		for _, b := range build {
			match := true
			for x := range probeKeys {
				if Compare(p[probeKeys[x]], b[buildKeys[x]]) != 0 {
					match = false
					break
				}
			}
			if match {
				out = append(out, append(append(Row(nil), p...), b...))
			}
		}
	}
	return out
}

// aggregateRows is the streamed aggregate over the stably sorted input:
// each run of equal keys is one group whose key values come from its
// first row. Count counts rows; Sum, Min and Max skip NULLs (a group with
// none yields NULL); Sum stays int64 until a float64 arrives; Min and Max
// keep the first of equal values. Groups come out in key order; no input
// gives no groups.
func aggregateRows(rows []Row, keys []int, aggs []Agg) []Row {
	sorted := sortRows(rows, keys)
	var out []Row
	for start := 0; start < len(sorted); {
		end := start + 1
		for end < len(sorted) && compareRows(sorted[start], sorted[end], keys) == 0 {
			end++
		}
		group := sorted[start:end]
		row := make(Row, 0, len(keys)+len(aggs))
		for _, k := range keys {
			row = append(row, group[0][k])
		}
		for _, a := range aggs {
			row = append(row, foldRows(group, a))
		}
		out = append(out, row)
		start = end
	}
	return out
}

func foldRows(group []Row, a Agg) Value {
	if a.Kind == AggCount {
		return int64(len(group))
	}
	var acc Value
	for _, r := range group {
		v := r[a.Col]
		switch {
		case v == nil:
			continue
		case acc == nil:
			acc = v
		case a.Kind == AggSum:
			ai, aInt := acc.(int64)
			vi, vInt := v.(int64)
			if aInt && vInt {
				acc = ai + vi
			} else {
				acc = toFloat(acc) + toFloat(v)
			}
		case a.Kind == AggMin && Compare(v, acc) < 0,
			a.Kind == AggMax && Compare(v, acc) > 0:
			acc = v
		}
	}
	return acc
}

func toFloat(v Value) float64 {
	if i, ok := v.(int64); ok {
		return float64(i)
	}
	return v.(float64)
}

// windowRows sorts by (PartitionBy, OrderBy) and appends each row's
// window value: row number, rank with gaps, dense rank, or the running
// float64 sum of ValueCol (NULLs add nothing), restarting per partition.
func windowRows(rows []Row, spec WindowSpec) []Row {
	sorted := sortRows(rows, append(append([]int(nil), spec.PartitionBy...), spec.OrderBy...))
	out := make([]Row, len(sorted))
	var rowNum, rank, dense int64
	var running float64
	for i, r := range sorted {
		newPart := i == 0 || compareRows(r, sorted[i-1], spec.PartitionBy) != 0
		if newPart {
			rowNum, rank, dense, running = 0, 0, 0, 0
		}
		rowNum++
		if newPart || compareRows(r, sorted[i-1], spec.OrderBy) != 0 {
			rank = rowNum
			dense++
		}
		var v Value
		switch spec.Func {
		case WinRowNumber:
			v = rowNum
		case WinRank:
			v = rank
		case WinDenseRank:
			v = dense
		case WinRunningSum:
			if x := r[spec.ValueCol]; x != nil {
				running += toFloat(x)
			}
			v = running
		}
		out[i] = append(append(Row(nil), r...), v)
	}
	return out
}

// partitionRowsByKey places each row in partition Hash % n, keeping input
// order; n <= 1 is one partition holding everything.
func partitionRowsByKey(rows []Row, keys []int, n int) [][]Row {
	if n <= 1 {
		return [][]Row{rows}
	}
	parts := make([][]Row, n)
	for _, r := range rows {
		p := Hash(r, keys) % uint64(n)
		parts[p] = append(parts[p], r)
	}
	return parts
}

// partitionRowsByRange places each row in the first partition whose bound
// it sorts below (the last partition takes the rest), keeping input order.
func partitionRowsByRange(rows []Row, keys []int, bounds []Row) [][]Row {
	parts := make([][]Row, len(bounds)+1)
	for _, r := range rows {
		p := 0
		for p < len(bounds) && compareRows(r, bounds[p], keys) >= 0 {
			p++
		}
		parts[p] = append(parts[p], r)
	}
	return parts
}
