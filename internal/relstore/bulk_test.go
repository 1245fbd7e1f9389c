package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// Tests of the bottom-up index build (bulk.go): a bulk-built index must
// answer exactly as one grown by inserts, refuse a duplicate in a unique
// index without publishing anything, and count its rows as writes.

// bulkRows draws n rows (name STRING, obj INT, seq INT, num FLOAT) with
// few distinct names, so the value index's entries share long prefixes
// and arrive out of order, obj ascending, so the by-object index
// arrives sorted, and num NULL in about a third of the rows, as the
// catalog's nval is for non-numeric text.
func bulkRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		name := fmt.Sprintf("value-%02d", rng.Intn(50))
		if rng.Intn(8) == 0 {
			name = fmt.Sprintf("%s-%d", name, rng.Intn(1000)) // a longer key sharing the prefix
		}
		num := Null()
		if rng.Intn(3) != 0 {
			num = Float(float64(rng.Intn(40)) / 4)
		}
		rows[i] = Row{Str(name), Int(int64(i / 3)), Int(int64(i % 3)), num}
	}
	return rows
}

// bulkIndexes are the indexes of the table the tests load: a non-unique
// index over (name, obj, seq), a non-unique index over obj, a unique
// index over (obj, seq) and a non-unique index over the nullable num.
var bulkIndexes = []Index{
	{Name: "by_name", Cols: []string{"name", "obj", "seq"}},
	{Name: "by_obj", Cols: []string{"obj"}},
	{Name: "pk", Unique: true, Cols: []string{"obj", "seq"}},
	{Name: "by_num", Cols: []string{"num", "obj", "seq"}},
}

// bulkTable creates the table the tests load, with bulkIndexes.
func bulkTable(t *testing.T, db *Database) *Table {
	t.Helper()
	tab, err := db.CreateTable("vals", []Column{
		{Name: "name", Type: KString, NotNull: true},
		{Name: "obj", Type: KInt, NotNull: true},
		{Name: "seq", Type: KInt, NotNull: true},
		{Name: "num", Type: KFloat},
	}, bulkIndexes...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// rowFeed returns a BulkLoad callback yielding rows in turn through one
// reused scratch row, as the snapshot loader does.
func rowFeed(rows []Row) func() (Row, error) {
	var scratch Row
	i := 0
	return func() (Row, error) {
		scratch = append(scratch[:0], rows[i]...)
		i++
		return scratch, nil
	}
}

// TestBulkBuildEqualsInserted loads the same rows into two tables, one
// by an Insert per row and one by BulkLoad, and requires every index to
// hold the same entries — same ascending scan, Get of every key, the
// same LookupEqual and LookupRange answers — with both trees passing
// checkInvariants, at sizes around one leaf and several levels. The
// index over the nullable column holds exactly the rows without a NULL.
func TestBulkBuildEqualsInserted(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4097, 100_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rows := bulkRows(rand.New(rand.NewSource(int64(n))), n)
			inserted := bulkTable(t, NewDatabase())
			tx := inserted.db.Begin()
			for _, r := range rows {
				if _, err := tx.Table("vals").Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			tx.Commit()
			bulk := bulkTable(t, NewDatabase())
			if err := bulk.BulkLoad(n, rowFeed(rows)); err != nil {
				t.Fatal(err)
			}
			if bulk.Len() != n || inserted.Len() != n {
				t.Fatalf("Len: bulk %d, inserted %d, want %d", bulk.Len(), inserted.Len(), n)
			}
			for _, ix := range bulkIndexes {
				compareIndexes(t, ix.Name, inserted, bulk, rows)
			}
			nums := 0
			for _, r := range rows {
				if !r[3].IsNull() {
					nums++
				}
			}
			if n := treeOf(t, bulk, "by_num").Len(); n != nums {
				t.Fatalf("by_num holds %d entries, want one for each of the %d non-NULL rows", n, nums)
			}
		})
	}
}

// compareIndexes requires the named index to answer the same on both
// tables.
func compareIndexes(t *testing.T, name string, want, got *Table, rows []Row) {
	t.Helper()
	wt, gt := treeOf(t, want, name), treeOf(t, got, name)
	for label, bt := range map[string]*btree{"inserted": wt, "bulk": gt} {
		if err := bt.checkInvariants(); err != nil {
			t.Fatalf("%s %s: %v", label, name, err)
		}
	}
	type entry struct {
		key string
		id  int64
	}
	scan := func(bt *btree) []entry {
		var out []entry
		bt.Ascend(nil, nil, func(k []byte, v int64) bool {
			out = append(out, entry{string(k), v})
			return true
		})
		return out
	}
	ws, gs := scan(wt), scan(gt)
	if !slices.Equal(ws, gs) {
		t.Fatalf("%s: ascending scans differ (%d entries inserted, %d bulk)", name, len(ws), len(gs))
	}
	if wt.Len() != gt.Len() {
		t.Fatalf("%s: Len %d inserted, %d bulk", name, wt.Len(), gt.Len())
	}
	for _, e := range gs {
		if v, ok := gt.Get([]byte(e.key)); !ok || v != e.id {
			t.Fatalf("%s: Get(%q) = %d, %v, want %d", name, e.key, v, ok, e.id)
		}
	}
	if _, ok := gt.Get([]byte("\xff absent")); ok {
		t.Fatalf("%s: Get of an absent key succeeded", name)
	}
	ix, _, _ := got.version().index(name)
	probe := func(r Row) []Value {
		vals := make([]Value, len(ix.cols))
		for i, c := range ix.cols {
			vals[i] = r[c]
		}
		return vals
	}
	rng := rand.New(rand.NewSource(int64(len(rows))))
	for trial := 0; trial < 40 && len(rows) > 0; trial++ {
		a, b := probe(rows[rng.Intn(len(rows))]), probe(rows[rng.Intn(len(rows))])
		we, err1 := want.LookupEqual(name, a...)
		ge, err2 := got.LookupEqual(name, a...)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(we, ge) {
			t.Fatalf("%s: LookupEqual(%v) = %v bulk, %v inserted", name, a, ge, we)
		}
		lo := RangeBound{Vals: a[:1], Inclusive: trial%2 == 0, Set: trial%5 != 0}
		hi := RangeBound{Vals: b[:1], Inclusive: trial%3 == 0, Set: trial%7 != 0}
		wr, err1 := want.LookupRange(name, lo, hi)
		gr, err2 := got.LookupRange(name, lo, hi)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wr, gr) {
			t.Fatalf("%s: LookupRange(%v, %v) = %d rows bulk, %d inserted", name, lo, hi, len(gr), len(wr))
		}
	}
}

// TestBulkLoadRefusesDuplicateUnique requires a duplicate key in a
// unique index to fail the load and publish nothing: the table stays
// empty, its indexes stay empty, the epoch does not move, and the same
// handle then loads valid rows. Inside an open transaction the table is
// left as it was too.
func TestBulkLoadRefusesDuplicateUnique(t *testing.T) {
	rows := bulkRows(rand.New(rand.NewSource(1)), 500)
	dup := append(slices.Clone(rows), slices.Clone(rows[137]))
	dup[len(dup)-1][0] = Str("another name")

	db := NewDatabase()
	tab := bulkTable(t, db)
	epoch := db.Generation()
	if err := tab.BulkLoad(len(dup), rowFeed(dup)); err == nil {
		t.Fatal("a duplicate (obj, seq) loaded into a unique index")
	}
	if db.Generation() != epoch {
		t.Fatalf("a refused load published epoch %d (was %d)", db.Generation(), epoch)
	}
	assertEmpty := func(tab *Table) {
		t.Helper()
		if tab.Len() != 0 {
			t.Fatalf("a refused load left %d rows", tab.Len())
		}
		for _, ix := range bulkIndexes {
			if n := treeOf(t, tab, ix.Name).Len(); n != 0 {
				t.Fatalf("a refused load left %d entries in %s", n, ix.Name)
			}
		}
	}
	assertEmpty(tab)

	tx := db.Begin()
	xt := tx.Table("vals")
	if err := xt.BulkLoad(len(dup), rowFeed(dup)); err == nil {
		t.Fatal("a duplicate loaded inside a transaction")
	}
	assertEmpty(xt)
	if err := xt.BulkLoad(len(rows), rowFeed(rows)); err != nil {
		t.Fatalf("the transaction could not load valid rows after a refusal: %v", err)
	}
	tx.Commit()
	if tab.Len() != len(rows) {
		t.Fatalf("Len %d after the load, want %d", tab.Len(), len(rows))
	}
}

// TestBulkLoadRefusesBadInput requires a row the schema refuses (too
// wide, NULL in a NOT NULL column), an error from the row source and a
// load into a table that already holds rows to fail, leaving the table
// as it was.
func TestBulkLoadRefusesBadInput(t *testing.T) {
	rows := bulkRows(rand.New(rand.NewSource(2)), 100)
	wide := slices.Clone(rows)
	wide[40] = append(slices.Clone(wide[40]), Int(9))
	null := slices.Clone(rows)
	null[70] = Row{Null(), Int(1), Int(2), Null()}
	tab := bulkTable(t, NewDatabase())
	for label, in := range map[string][]Row{"too wide": wide, "NULL name": null} {
		if err := tab.BulkLoad(len(in), rowFeed(in)); err == nil {
			t.Fatalf("%s: row loaded", label)
		}
	}
	sourceErr := errors.New("source failed")
	calls := 0
	err := tab.BulkLoad(10, func() (Row, error) {
		if calls++; calls == 5 {
			return nil, sourceErr
		}
		return rows[calls], nil
	})
	if !errors.Is(err, sourceErr) {
		t.Fatalf("source error: got %v", err)
	}
	if tab.Len() != 0 {
		t.Fatalf("refused loads left %d rows", tab.Len())
	}
	if err := tab.BulkLoad(len(rows), rowFeed(rows)); err != nil {
		t.Fatal(err)
	}
	if err := tab.BulkLoad(1, rowFeed(rows)); err == nil {
		t.Fatal("a second load into a table holding rows succeeded")
	}
	if tab.Len() != len(rows) {
		t.Fatalf("Len %d after a refused second load, want %d", tab.Len(), len(rows))
	}
}

// TestBulkLoadCountsRowWrites requires each loaded row to count one
// relstore_row_writes_total, as an Insert does.
func TestBulkLoadCountsRowWrites(t *testing.T) {
	reg := obs.NewRegistry()
	db := NewDatabase()
	db.SetMetrics(reg)
	tab := bulkTable(t, db)
	rows := bulkRows(rand.New(rand.NewSource(3)), 321)
	if err := tab.BulkLoad(len(rows), rowFeed(rows)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("relstore_row_writes_total", obs.L("table", "vals")).Value(); got != uint64(len(rows)) {
		t.Fatalf("relstore_row_writes_total = %d, want %d", got, len(rows))
	}
}
