package relstore

import (
	"fmt"
	"sort"
)

// Iterator is the volcano-style row stream produced by the executor.
// Next returns rows until ok is false. Rows are read-only; operators that
// buffer copy them. Iterators are single-use and not goroutine-safe.
type Iterator interface {
	// Columns names the output columns, positionally.
	Columns() []string
	// Next returns the next row, or ok=false at end of stream.
	Next() (row Row, ok bool)
}

// sliceIter streams a materialized row slice.
type sliceIter struct {
	cols []string
	rows []Row
	pos  int
}

func (s *sliceIter) Columns() []string { return s.cols }

func (s *sliceIter) Next() (Row, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

// newSliceIter wraps rows in an Iterator.
func newSliceIter(cols []string, rows []Row) Iterator {
	return &sliceIter{cols: cols, rows: rows}
}

// Collect drains an iterator into a slice.
func Collect(it Iterator) []Row {
	var out []Row
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// ScanTable snapshots the table's live rows into an iterator. The snapshot
// copies row headers only, so a scan is stable under concurrent mutation.
func ScanTable(t *Table) Iterator {
	rows := make([]Row, 0, t.Len())
	t.Scan(func(_ int64, r Row) bool {
		rows = append(rows, r)
		return true
	})
	return newSliceIter(colNames(t.Schema), rows)
}

// ScanRowIDs streams the rows stored under ids (skipping deleted ones), in
// the given order.
func ScanRowIDs(t *Table, ids []int64) Iterator {
	rows := make([]Row, 0, len(ids))
	for _, id := range ids {
		if r := t.Get(id); r != nil {
			rows = append(rows, r)
		}
	}
	return newSliceIter(colNames(t.Schema), rows)
}

func colNames(s *Schema) []string {
	cols := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = c.Name
	}
	return cols
}

// filterIter applies a predicate lazily.
type filterIter struct {
	in   Iterator
	pred func(Row) bool
}

func (f *filterIter) Columns() []string { return f.in.Columns() }

func (f *filterIter) Next() (Row, bool) {
	for {
		r, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		if f.pred(r) {
			return r, true
		}
	}
}

// Filter returns the rows of in satisfying pred.
func Filter(in Iterator, pred func(Row) bool) Iterator {
	return &filterIter{in: in, pred: pred}
}

// JoinKind selects join semantics.
type JoinKind uint8

const (
	// InnerJoin emits concatenated left+right rows for every match.
	InnerJoin JoinKind = iota
	// LeftJoin additionally emits left rows with NULL right columns when
	// unmatched.
	LeftJoin
)

// HashJoin joins left and right on equality of the keyed columns. The
// right side is built into a hash table; the left side streams. NULL keys
// never match (SQL semantics).
func HashJoin(left, right Iterator, leftKey, rightKey []int, kind JoinKind) Iterator {
	build := make(map[string][]Row)
	rightCols := right.Columns()
	for {
		r, ok := right.Next()
		if !ok {
			break
		}
		if hasNull(r, rightKey) {
			continue
		}
		k := string(KeyOfColumns(r, rightKey))
		build[k] = append(build[k], r)
	}
	outCols := append(append([]string{}, left.Columns()...), rightCols...)
	return &hashJoinIter{
		left: left, build: build, leftKey: leftKey, kind: kind,
		cols: outCols, nright: len(rightCols),
	}
}

type hashJoinIter struct {
	left    Iterator
	build   map[string][]Row
	leftKey []int
	kind    JoinKind
	cols    []string
	nright  int

	pendingLeft  Row
	pendingMatch []Row
	pendingPos   int
}

func (h *hashJoinIter) Columns() []string { return h.cols }

func (h *hashJoinIter) Next() (Row, bool) {
	for {
		if h.pendingLeft != nil && h.pendingPos < len(h.pendingMatch) {
			r := concatRows(h.pendingLeft, h.pendingMatch[h.pendingPos])
			h.pendingPos++
			return r, true
		}
		h.pendingLeft = nil
		l, ok := h.left.Next()
		if !ok {
			return nil, false
		}
		var matches []Row
		if !hasNull(l, h.leftKey) {
			matches = h.build[string(KeyOfColumns(l, h.leftKey))]
		}
		switch h.kind {
		case LeftJoin:
			if len(matches) == 0 {
				return concatRows(l, make(Row, h.nright)), true
			}
			h.pendingLeft, h.pendingMatch, h.pendingPos = l, matches, 0
		case InnerJoin:
			if len(matches) > 0 {
				h.pendingLeft, h.pendingMatch, h.pendingPos = l, matches, 0
			}
		}
	}
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func hasNull(r Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// SortSpec orders by one column.
type SortSpec struct {
	Col  int
	Desc bool
}

// Sort materializes and sorts the input (stable).
func Sort(in Iterator, specs ...SortSpec) Iterator {
	rows := Collect(in)
	sort.SliceStable(rows, func(i, j int) bool {
		for _, s := range specs {
			c := Compare(rows[i][s.Col], rows[j][s.Col])
			if c == 0 {
				continue
			}
			if s.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return newSliceIter(in.Columns(), rows)
}

// AggFunc enumerates the supported aggregates.
type AggFunc uint8

const (
	// AggCount counts rows (ignores Col).
	AggCount AggFunc = iota
	// AggCountCol counts non-NULL values of Col (SQL COUNT(col)).
	AggCountCol
	// AggCountDistinct counts distinct non-NULL values of Col.
	AggCountDistinct
	// AggSum sums numeric values of Col.
	AggSum
	// AggMin takes the minimum of Col.
	AggMin
	// AggMax takes the maximum of Col.
	AggMax
	// AggAvg averages numeric values of Col.
	AggAvg
)

// AggSpec describes one output aggregate.
type AggSpec struct {
	Func AggFunc
	Col  int
	Name string
}

type aggState struct {
	count    int64
	sum      float64
	sumInt   int64
	intOnly  bool
	min, max Value
	distinct map[string]struct{}
	seen     bool
}

// GroupBy groups the input on keyCols and computes aggs per group. Output
// columns are the key columns (input names) followed by the aggregate
// names. Groups are emitted in first-seen order.
func GroupBy(in Iterator, keyCols []int, aggs []AggSpec) Iterator {
	type group struct {
		key    Row
		states []*aggState
	}
	index := make(map[string]*group)
	var order []*group
	for {
		r, ok := in.Next()
		if !ok {
			break
		}
		k := string(KeyOfColumns(r, keyCols))
		g := index[k]
		if g == nil {
			key := make(Row, len(keyCols))
			for i, c := range keyCols {
				key[i] = r[c]
			}
			g = &group{key: key, states: make([]*aggState, len(aggs))}
			for i := range aggs {
				g.states[i] = &aggState{intOnly: true}
				if aggs[i].Func == AggCountDistinct {
					g.states[i].distinct = make(map[string]struct{})
				}
			}
			index[k] = g
			order = append(order, g)
		}
		for i, a := range aggs {
			updateAgg(g.states[i], a, r)
		}
	}
	inCols := in.Columns()
	cols := make([]string, 0, len(keyCols)+len(aggs))
	for _, c := range keyCols {
		cols = append(cols, inCols[c])
	}
	for _, a := range aggs {
		cols = append(cols, a.Name)
	}
	rows := make([]Row, 0, len(order))
	for _, g := range order {
		out := make(Row, 0, len(cols))
		out = append(out, g.key...)
		for i, a := range aggs {
			out = append(out, finishAgg(g.states[i], a))
		}
		rows = append(rows, out)
	}
	return newSliceIter(cols, rows)
}

func updateAgg(st *aggState, a AggSpec, r Row) {
	switch a.Func {
	case AggCount:
		st.count++
	case AggCountCol:
		if !r[a.Col].IsNull() {
			st.count++
		}
	case AggCountDistinct:
		v := r[a.Col]
		if !v.IsNull() {
			st.distinct[string(EncodeKey(v))] = struct{}{}
		}
	case AggSum, AggAvg:
		v := r[a.Col]
		if v.IsNull() {
			return
		}
		st.count++
		if v.K == KInt {
			st.sumInt += v.I
			st.sum += float64(v.I)
		} else if f, ok := v.AsFloat(); ok {
			st.intOnly = false
			st.sum += f
		}
	case AggMin, AggMax:
		v := r[a.Col]
		if v.IsNull() {
			return
		}
		if !st.seen {
			st.min, st.max, st.seen = v, v, true
			return
		}
		if Compare(v, st.min) < 0 {
			st.min = v
		}
		if Compare(v, st.max) > 0 {
			st.max = v
		}
	}
}

func finishAgg(st *aggState, a AggSpec) Value {
	switch a.Func {
	case AggCount, AggCountCol:
		return Int(st.count)
	case AggCountDistinct:
		return Int(int64(len(st.distinct)))
	case AggSum:
		if st.count == 0 {
			return Null()
		}
		if st.intOnly {
			return Int(st.sumInt)
		}
		return Float(st.sum)
	case AggAvg:
		if st.count == 0 {
			return Null()
		}
		return Float(st.sum / float64(st.count))
	case AggMin:
		if !st.seen {
			return Null()
		}
		return st.min
	case AggMax:
		if !st.seen {
			return Null()
		}
		return st.max
	}
	return Null()
}

// Distinct removes duplicate rows (whole-row), keeping first occurrences.
func Distinct(in Iterator) Iterator {
	seen := make(map[string]struct{})
	var rows []Row
	for {
		r, ok := in.Next()
		if !ok {
			break
		}
		all := make([]int, len(r))
		for i := range all {
			all[i] = i
		}
		k := string(KeyOfColumns(r, all))
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		rows = append(rows, r)
	}
	return newSliceIter(in.Columns(), rows)
}

// Limit truncates the stream after n rows (skipping offset rows first).
func Limit(in Iterator, offset, n int64) Iterator {
	return &limitIter{in: in, skip: offset, n: n}
}

type limitIter struct {
	in   Iterator
	skip int64
	n    int64
}

func (l *limitIter) Columns() []string { return l.in.Columns() }

func (l *limitIter) Next() (Row, bool) {
	for l.skip > 0 {
		if _, ok := l.in.Next(); !ok {
			return nil, false
		}
		l.skip--
	}
	if l.n <= 0 {
		return nil, false
	}
	l.n--
	return l.in.Next()
}

// InsertFrom drains it into table t, returning the number of rows
// inserted.
func InsertFrom(t *Table, it Iterator) (int64, error) {
	var n int64
	for {
		r, ok := it.Next()
		if !ok {
			return n, nil
		}
		if _, err := t.Insert(r); err != nil {
			return n, fmt.Errorf("insert into %s: %w", t.Schema.Name, err)
		}
		n++
	}
}
