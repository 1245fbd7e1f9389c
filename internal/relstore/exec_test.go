package relstore

import (
	"fmt"
	"testing"
)

func rowsOf(vals ...[]any) []Row {
	out := make([]Row, len(vals))
	for i, rv := range vals {
		r := make(Row, len(rv))
		for j, v := range rv {
			switch x := v.(type) {
			case int:
				r[j] = Int(int64(x))
			case int64:
				r[j] = Int(x)
			case float64:
				r[j] = Float(x)
			case string:
				r[j] = Str(x)
			case nil:
				r[j] = Null()
			case bool:
				r[j] = Bool(x)
			default:
				panic(fmt.Sprintf("rowsOf: %T", v))
			}
		}
		out[i] = r
	}
	return out
}

func dumpRows(rows []Row) string {
	s := ""
	for _, r := range rows {
		s += fmt.Sprint(r) + ";"
	}
	return s
}

func TestScanTableAndFilter(t *testing.T) {
	tab := newTestTable(t)
	for i := 0; i < 10; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Str("p"), Int(int64(i * 2))}); err != nil {
			t.Fatal(err)
		}
	}
	it := Filter(ScanTable(tab), func(r Row) bool { return r[2].I >= 10 })
	rows := Collect(it)
	if len(rows) != 5 {
		t.Fatalf("filter returned %d rows", len(rows))
	}
	if got := it.Columns(); len(got) != 3 || got[0] != "id" {
		t.Errorf("Columns = %v", got)
	}
}

func TestHashJoinInner(t *testing.T) {
	left := newSliceIter([]string{"id", "name"}, rowsOf(
		[]any{1, "a"}, []any{2, "b"}, []any{3, "c"}, []any{nil, "n"}))
	right := newSliceIter([]string{"pid", "score"}, rowsOf(
		[]any{1, 10}, []any{1, 11}, []any{3, 30}, []any{nil, 99}))
	out := Collect(HashJoin(left, right, []int{0}, []int{0}, InnerJoin))
	if len(out) != 3 {
		t.Fatalf("inner join returned %d rows: %s", len(out), dumpRows(out))
	}
	// id=1 matches twice, id=3 once, NULL never.
	counts := map[int64]int{}
	for _, r := range out {
		counts[r[0].I]++
		if r[0].I != r[2].I {
			t.Errorf("join key mismatch in %v", r)
		}
	}
	if counts[1] != 2 || counts[3] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestHashJoinLeft(t *testing.T) {
	left := newSliceIter([]string{"id"}, rowsOf([]any{1}, []any{2}))
	right := newSliceIter([]string{"pid", "v"}, rowsOf([]any{1, "x"}))
	out := Collect(HashJoin(left, right, []int{0}, []int{0}, LeftJoin))
	if len(out) != 2 {
		t.Fatalf("left join returned %d rows", len(out))
	}
	var matched, unmatched bool
	for _, r := range out {
		if r[0].I == 1 && r[2].S == "x" {
			matched = true
		}
		if r[0].I == 2 && r[1].IsNull() && r[2].IsNull() {
			unmatched = true
		}
	}
	if !matched || !unmatched {
		t.Errorf("left join rows wrong: %s", dumpRows(out))
	}
}

func TestSortMultiKey(t *testing.T) {
	in := newSliceIter([]string{"a", "b"}, rowsOf(
		[]any{2, "x"}, []any{1, "z"}, []any{2, "a"}, []any{1, "a"}))
	out := Collect(Sort(in, SortSpec{Col: 0}, SortSpec{Col: 1, Desc: true}))
	want := "[1 \"z\"];[1 \"a\"];[2 \"x\"];[2 \"a\"];"
	if got := dumpRows(out); got != want {
		t.Errorf("sorted = %s, want %s", got, want)
	}
}

func TestGroupByAggregates(t *testing.T) {
	in := newSliceIter([]string{"g", "v"}, rowsOf(
		[]any{"a", 1}, []any{"a", 2}, []any{"a", 2}, []any{"b", 10}, []any{"b", nil}))
	out := Collect(GroupBy(in, []int{0}, []AggSpec{
		{Func: AggCount, Name: "n"},
		{Func: AggCountDistinct, Col: 1, Name: "nd"},
		{Func: AggSum, Col: 1, Name: "sum"},
		{Func: AggMin, Col: 1, Name: "min"},
		{Func: AggMax, Col: 1, Name: "max"},
		{Func: AggAvg, Col: 1, Name: "avg"},
	}))
	if len(out) != 2 {
		t.Fatalf("groups = %s", dumpRows(out))
	}
	a, b := out[0], out[1]
	if a[0].S != "a" || a[1].I != 3 || a[2].I != 2 || a[3].I != 5 || a[4].I != 1 || a[5].I != 2 {
		t.Errorf("group a = %v", a)
	}
	if af := a[6].F; af < 1.66 || af > 1.67 {
		t.Errorf("avg(a) = %v", a[6])
	}
	// Group b: one NULL value — count counts rows, distinct/sum ignore NULL.
	if b[0].S != "b" || b[1].I != 2 || b[2].I != 1 || b[3].I != 10 {
		t.Errorf("group b = %v", b)
	}
}

func TestGroupByEmptyKeyGlobalAggregate(t *testing.T) {
	in := newSliceIter([]string{"v"}, rowsOf([]any{1}, []any{2}, []any{3}))
	out := Collect(GroupBy(in, nil, []AggSpec{{Func: AggSum, Col: 0, Name: "s"}}))
	if len(out) != 1 || out[0][0].I != 6 {
		t.Errorf("global sum = %s", dumpRows(out))
	}
}

func TestDistinctLimit(t *testing.T) {
	in := newSliceIter([]string{"a"}, rowsOf([]any{1}, []any{2}, []any{1}, []any{3}, []any{2}))
	if got := Collect(Distinct(in)); len(got) != 3 {
		t.Errorf("distinct = %s", dumpRows(got))
	}
	in2 := newSliceIter([]string{"a"}, rowsOf([]any{1}, []any{2}, []any{3}, []any{4}))
	if got := Collect(Limit(in2, 1, 2)); len(got) != 2 || got[0][0].I != 2 {
		t.Errorf("limit = %s", dumpRows(got))
	}
}

func TestScanRowIDsAndInsertFrom(t *testing.T) {
	tab := newTestTable(t)
	var ids []int64
	for i := 0; i < 5; i++ {
		id, _ := tab.Insert(Row{Int(int64(i)), Str("p"), Null()})
		ids = append(ids, id)
	}
	tab.Delete(ids[2])
	rows := Collect(ScanRowIDs(tab, ids))
	if len(rows) != 4 {
		t.Errorf("ScanRowIDs returned %d rows", len(rows))
	}
	dst := NewTable(MustSchema("dst",
		Column{Name: "id", Type: KInt},
		Column{Name: "name", Type: KString},
		Column{Name: "age", Type: KInt},
	))
	n, err := InsertFrom(dst, ScanTable(tab))
	if err != nil || n != 4 {
		t.Errorf("InsertFrom = %d, %v", n, err)
	}
}
