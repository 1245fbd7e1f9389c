package relstore

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// peopleCols are the columns of newTestTable's table; age is nullable.
var peopleCols = []Column{
	{Name: "id", Type: KInt, NotNull: true},
	{Name: "name", Type: KString, NotNull: true},
	{Name: "age", Type: KInt},
}

// newTestTable creates the people table with the given indexes.
func newTestTable(t *testing.T, indexes ...Index) *Table {
	t.Helper()
	tab, err := NewDatabase().CreateTable("people", peopleCols, indexes...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// plainIx declares a non-unique index; uniqueIx a unique one.
func plainIx(name string, cols ...string) Index  { return Index{Name: name, Cols: cols} }
func uniqueIx(name string, cols ...string) Index { return Index{Name: name, Unique: true, Cols: cols} }

// treeOf returns the tree of the named index in the version tab reads.
func treeOf(t *testing.T, tab *Table, name string) *btree {
	t.Helper()
	_, bt, err := tab.version().index(name)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

func TestSchemaValidation(t *testing.T) {
	ab := []Column{{Name: "a", Type: KInt}, {Name: "b", Type: KString}}
	for label, bad := range map[string]struct {
		cols []Column
		ixs  []Index
	}{
		"duplicate column":      {[]Column{{Name: "a", Type: KInt}, {Name: "a", Type: KInt}}, nil},
		"empty column name":     {[]Column{{Name: "", Type: KInt}}, nil},
		"duplicate index":       {ab, []Index{plainIx("i", "a"), uniqueIx("i", "b")}},
		"index on unknown col":  {ab, []Index{plainIx("i", "a", "zzz")}},
		"index without columns": {ab, []Index{plainIx("i")}},
		"index without a name":  {ab, []Index{plainIx("", "a")}},
	} {
		if _, err := NewSchema("t", bad.cols, bad.ixs...); err == nil {
			t.Errorf("%s should fail", label)
		}
	}
	s, err := NewSchema("t", ab, plainIx("by_b", "b", "a"), uniqueIx("pk", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if s.ColIndex("b") != 1 || s.ColIndex("missing") != -1 {
		t.Error("ColIndex misbehaved")
	}
	if _, err := s.ColIndexes("a", "zzz"); err == nil {
		t.Error("ColIndexes with unknown column should fail")
	}
	if len(s.Indexes) != 2 || s.Indexes[0].Name != "by_b" || s.Indexes[1].Name != "pk" || !slices.Equal(s.Indexes[0].cols, []int{1, 0}) {
		t.Errorf("indexes not kept in declaration order with resolved columns: %+v", s.Indexes)
	}
}

func TestTableInsertGetDelete(t *testing.T) {
	tab := newTestTable(t)
	id1, err := tab.Insert(Row{Int(1), Str("ada"), Int(36)})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := tab.Insert(Row{Int(2), Str("grace"), Null()})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if r := tab.Get(id1); r == nil || r[1].S != "ada" {
		t.Errorf("Get(id1) = %v", r)
	}
	if !tab.Delete(id1) || tab.Delete(id1) {
		t.Error("Delete semantics wrong")
	}
	if tab.Get(id1) != nil {
		t.Error("deleted row still visible")
	}
	// Row ID reuse after free.
	id3, _ := tab.Insert(Row{Int(3), Str("edsger"), Int(40)})
	if id3 != id1 {
		t.Logf("row id not reused (got %d), acceptable but unexpected", id3)
	}
	_ = id2
}

func TestTableSchemaEnforcement(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.Insert(Row{Int(1), Str("x")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := tab.Insert(Row{Int(1), Null(), Int(3)}); err == nil {
		t.Error("NOT NULL violation should fail")
	}
	// A value of another kind is refused, not converted, even where a
	// conversion would be exact.
	for _, r := range []Row{
		{Str("5"), Str("x"), Null()},
		{Float(5), Str("x"), Null()},
		{Int(5), Int(1), Null()},
		{Int(5), Str("x"), Bool(true)},
	} {
		if _, err := tab.Insert(r); err == nil {
			t.Errorf("Insert(%v) should fail on a kind mismatch", r)
		}
	}
	if tab.Len() != 0 {
		t.Errorf("Len = %d after refused inserts", tab.Len())
	}
	if _, err := tab.Insert(Row{Int(5), Str("x"), Null()}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexEqualityLookup(t *testing.T) {
	tab := newTestTable(t, plainIx("by_name", "name"))
	for i := 0; i < 10; i++ {
		name := "even"
		if i%2 == 1 {
			name = "odd"
		}
		if _, err := tab.Insert(Row{Int(int64(i)), Str(name), Int(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := tab.LookupEqual("by_name", Str("even"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("lookup(even) returned %d rows", len(ids))
	}
	for _, id := range ids {
		if tab.Get(id)[1].S != "even" {
			t.Error("lookup returned wrong row")
		}
	}
	ids, _ = tab.LookupEqual("by_name", Str("missing"))
	if len(ids) != 0 {
		t.Error("lookup of missing key should be empty")
	}
}

func TestBTreeIndexRange(t *testing.T) {
	tab := newTestTable(t, plainIx("by_age", "age"))
	for i := 0; i < 50; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Str(fmt.Sprint("p", i)), Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := tab.LookupRange("by_age",
		RangeBound{Vals: []Value{Int(10)}, Inclusive: true, Set: true},
		RangeBound{Vals: []Value{Int(15)}, Inclusive: false, Set: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("range [10,15) returned %d rows", len(ids))
	}
	// Exclusive low bound.
	ids, _ = tab.LookupRange("by_age",
		RangeBound{Vals: []Value{Int(10)}, Inclusive: false, Set: true},
		RangeBound{Vals: []Value{Int(15)}, Inclusive: true, Set: true})
	if len(ids) != 5 { // 11..15
		t.Fatalf("range (10,15] returned %d rows", len(ids))
	}
	// Unbounded high.
	ids, _ = tab.LookupRange("by_age",
		RangeBound{Vals: []Value{Int(45)}, Inclusive: true, Set: true}, RangeBound{})
	if len(ids) != 5 {
		t.Fatalf("range [45,∞) returned %d rows", len(ids))
	}
}

// TestCountPrefix: a prefix count equals the length of the range lookup
// over the same prefix, on a leading column and on the full key, and
// follows deletes.
func TestCountPrefix(t *testing.T) {
	tab := newTestTable(t, plainIx("by_name_age", "name", "age"))
	var evens []int64
	for i := 0; i < 40; i++ {
		name := []string{"even", "odd"}[i%2]
		id, err := tab.Insert(Row{Int(int64(i)), Str(name), Int(int64(i % 4))})
		if err != nil {
			t.Fatal(err)
		}
		if name == "even" {
			evens = append(evens, id)
		}
	}
	count := func(vals ...Value) int {
		t.Helper()
		n, err := tab.CountPrefix("by_name_age", vals...)
		if err != nil {
			t.Fatal(err)
		}
		ids, _ := tab.LookupRange("by_name_age",
			RangeBound{Vals: vals, Inclusive: true, Set: true},
			RangeBound{Vals: vals, Inclusive: true, Set: true})
		if n != len(ids) {
			t.Fatalf("CountPrefix(%v) = %d, range lookup found %d", vals, n, len(ids))
		}
		return n
	}
	if n := count(Str("even")); n != 20 {
		t.Fatalf("count(even) = %d, want 20", n)
	}
	if n := count(Str("odd"), Int(3)); n != 10 {
		t.Fatalf("count(odd, 3) = %d, want 10", n)
	}
	if n := count(Str("none")); n != 0 {
		t.Fatalf("count(none) = %d, want 0", n)
	}
	for _, id := range evens[:5] {
		tab.Delete(id)
	}
	if n := count(Str("even")); n != 15 {
		t.Fatalf("count(even) after 5 deletes = %d, want 15", n)
	}
	for _, bad := range []struct {
		index string
		vals  []Value
	}{
		{"by_name_age", nil},
		{"by_name_age", []Value{Str("even"), Int(0), Int(1)}},
		{"missing", []Value{Str("even")}},
	} {
		if _, err := tab.CountPrefix(bad.index, bad.vals...); err == nil {
			t.Errorf("CountPrefix(%s, %v) should fail", bad.index, bad.vals)
		}
	}
}

// TestUniqueIndexViolationRollsBack: an insert refused by a unique
// index declared after other indexes takes back the entries it already
// added and leaves the table as it was — inside a transaction too,
// whose later writes and commit then see no trace of it.
func TestUniqueIndexViolationRollsBack(t *testing.T) {
	tab := newTestTable(t, plainIx("by_name", "name"), uniqueIx("pk", "id"), plainIx("by_age", "age"))
	if _, err := tab.Insert(Row{Int(1), Str("ada"), Int(36)}); err != nil {
		t.Fatal(err)
	}
	check := func(label string, tb *Table, rows int) {
		t.Helper()
		if tb.Len() != rows {
			t.Errorf("%s: %d rows, want %d", label, tb.Len(), rows)
		}
		// No index may retain an entry for the rejected row.
		for _, name := range []string{"by_name", "pk", "by_age"} {
			if n := treeOf(t, tb, name).Len(); n != rows {
				t.Errorf("%s: %s holds %d entries, want %d", label, name, n, rows)
			}
		}
		if ids, _ := tb.LookupEqual("by_name", Str("dup")); len(ids) != 0 {
			t.Errorf("%s: the refused insert left a secondary index entry", label)
		}
	}
	if _, err := tab.Insert(Row{Int(1), Str("dup"), Int(40)}); err == nil {
		t.Fatal("duplicate pk should fail")
	}
	check("auto-commit", tab, 1)

	tx := tab.db.Begin()
	xt := tx.Table("people")
	if _, err := xt.Insert(Row{Int(1), Str("dup"), Int(40)}); err == nil {
		t.Fatal("duplicate pk should fail inside a transaction")
	}
	check("inside the transaction", xt, 1)
	if _, err := xt.Insert(Row{Int(2), Str("grace"), Int(45)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	check("after commit", tab, 2)
}

// TestIndexMaintainedAcrossUpdateDelete: an update is a Delete and an
// Insert in one transaction; the old entry goes, the new one arrives,
// and a later Delete removes it.
func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	tab := newTestTable(t, plainIx("by_name", "name"))
	id, _ := tab.Insert(Row{Int(1), Str("before"), Null()})
	tx := tab.db.Begin()
	xt := tx.Table("people")
	if !xt.Delete(id) {
		t.Fatal("delete of the row to update failed")
	}
	nid, err := xt.Insert(Row{Int(1), Str("after"), Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if nid != id {
		t.Errorf("the updated row moved from row ID %d to %d", id, nid)
	}
	if ids, _ := tab.LookupEqual("by_name", Str("before")); len(ids) != 0 {
		t.Error("stale index entry after update")
	}
	if ids, _ := tab.LookupEqual("by_name", Str("after")); len(ids) != 1 {
		t.Error("missing index entry after update")
	}
	tab.Delete(id)
	if ids, _ := tab.LookupEqual("by_name", Str("after")); len(ids) != 0 {
		t.Error("stale index entry after delete")
	}
}

// TestNullKeyedRowsHaveNoEntries: a row with a NULL in an indexed column
// has no entry in that index — after Insert, Delete, BulkLoad and an
// aborted transaction — while the indexes over its non-NULL columns
// hold it, and no probe finds it.
func TestNullKeyedRowsHaveNoEntries(t *testing.T) {
	indexes := []Index{plainIx("by_age", "age"), plainIx("by_name_age", "name", "age"), plainIx("by_name", "name")}
	rows := []Row{
		{Int(1), Str("ada"), Int(36)},
		{Int(2), Str("grace"), Null()},
		{Int(3), Str("edsger"), Int(40)},
		{Int(4), Str("ada"), Null()},
	}
	check := func(label string, tab *Table) {
		t.Helper()
		var withAge, all int
		tab.Scan(func(_ int64, r Row) bool {
			all++
			if !r[2].IsNull() {
				withAge++
			}
			return true
		})
		for name, want := range map[string]int{"by_age": withAge, "by_name_age": withAge, "by_name": all} {
			bt := treeOf(t, tab, name)
			if bt.Len() != want {
				t.Errorf("%s: %s holds %d entries, want %d", label, name, bt.Len(), want)
			}
			bt.Ascend(nil, nil, func(k []byte) bool {
				id := entryRowID(k)
				if r := tab.Get(id); r == nil || (name != "by_name" && r[2].IsNull()) {
					t.Errorf("%s: %s holds an entry for row %d = %v", label, name, id, r)
				}
				return true
			})
			if err := bt.checkInvariants(); err != nil {
				t.Errorf("%s: %s: %v", label, name, err)
			}
		}
		if ids, _ := tab.LookupEqual("by_age", Null()); len(ids) != 0 {
			t.Errorf("%s: a NULL probe found rows %v", label, ids)
		}
		if ids, _ := tab.LookupEqual("by_name_age", Str("ada"), Null()); len(ids) != 0 {
			t.Errorf("%s: a (name, NULL) probe found rows %v", label, ids)
		}
	}

	tab := newTestTable(t, indexes...)
	ids := make([]int64, len(rows))
	for i, r := range rows {
		var err error
		if ids[i], err = tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	check("insert", tab)
	tab.Delete(ids[1])
	tab.Delete(ids[2])
	check("delete", tab)

	tx := tab.db.Begin()
	xt := tx.Table("people")
	for _, r := range rows {
		if _, err := xt.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	check("inside the transaction", xt)
	tx.Abort()
	check("abort", tab)

	bulk := newTestTable(t, indexes...)
	i := 0
	if err := bulk.BulkLoad(len(rows), func() (Row, error) { i++; return rows[i-1], nil }); err != nil {
		t.Fatal(err)
	}
	check("bulk load", bulk)

	// A row without an entry leaves the key buffer as it was, so the bulk
	// build's shared buffer holds only the keys it stores.
	byNameAge := &bulk.Schema.Indexes[1]
	if key, ok := appendEntryKey([]byte("kept"), byNameAge, rows[1], 7); ok || string(key) != "kept" {
		t.Errorf("appendEntryKey of a NULL-keyed row = %q, %v; want the buffer unchanged, false", key, ok)
	}
}

// TestUniqueIndexAcceptsNullRows: rows whose key holds a NULL have no
// entry, so a unique index never compares them: any number may share
// the NULL, through Insert and BulkLoad alike, while a non-NULL
// duplicate is still refused.
func TestUniqueIndexAcceptsNullRows(t *testing.T) {
	rows := []Row{
		{Int(1), Str("a"), Null()},
		{Int(2), Str("b"), Null()},
		{Int(3), Str("c"), Int(7)},
		{Int(4), Str("d"), Null()},
	}
	tab := newTestTable(t, uniqueIx("uniq_age", "age"), uniqueIx("uniq_name_age", "name", "age"))
	for _, r := range rows {
		if _, err := tab.Insert(r); err != nil {
			t.Fatalf("Insert(%v): %v", r, err)
		}
	}
	if _, err := tab.Insert(Row{Int(5), Str("e"), Int(7)}); err == nil {
		t.Error("a duplicate non-NULL key passed the unique index")
	}
	bulk := newTestTable(t, uniqueIx("uniq_age", "age"), uniqueIx("uniq_name_age", "name", "age"))
	i := 0
	if err := bulk.BulkLoad(len(rows), func() (Row, error) { i++; return rows[i-1], nil }); err != nil {
		t.Fatalf("BulkLoad refused NULL-keyed rows: %v", err)
	}
	for _, tb := range []*Table{tab, bulk} {
		if tb.Len() != len(rows) {
			t.Errorf("Len = %d, want %d", tb.Len(), len(rows))
		}
		for _, name := range []string{"uniq_age", "uniq_name_age"} {
			if n := treeOf(t, tb, name).Len(); n != 1 {
				t.Errorf("%s holds %d entries, want 1", name, n)
			}
		}
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tab := newTestTable(t, plainIx("by_age", "age"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, err := tab.Insert(Row{Int(int64(w*1000 + i)), Str("w"), Int(int64(i))})
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					tab.Delete(id)
				}
				if i%5 == 0 {
					_, _ = tab.LookupEqual("by_age", Int(int64(i)))
					tab.Scan(func(_ int64, _ Row) bool { return false })
				}
			}
		}(w)
	}
	wg.Wait()
	want := 8 * (200 - 67) // 67 deletions per worker (i%3==0 for 0..199)
	if tab.Len() != want {
		t.Errorf("Len = %d, want %d", tab.Len(), want)
	}
}

func TestDatabaseLifecycle(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateTable("a", []Column{{Name: "x", Type: KInt}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", []Column{{Name: "x", Type: KInt}}); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.CreateTable("b", []Column{{Name: "y", Type: KString}}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(db.TableNames(), ","); got != "a,b" {
		t.Errorf("TableNames = %s", got)
	}
}

func TestStorageBytesGrows(t *testing.T) {
	db := NewDatabase()
	tab, _ := db.CreateTable("t", []Column{{Name: "s", Type: KString}})
	before := db.StorageBytes()
	if _, err := tab.Insert(Row{Str(strings.Repeat("x", 1000))}); err != nil {
		t.Fatal(err)
	}
	after := db.StorageBytes()
	if after-before < 1000 {
		t.Errorf("StorageBytes grew by %d, want >= 1000", after-before)
	}
}

// TestStorageBytesPerRow checks one row's charge against a figure
// computed by hand: a 24-byte slice header, three 40-byte Values, and
// the string's 5 bytes.
func TestStorageBytesPerRow(t *testing.T) {
	db := NewDatabase()
	tab, _ := db.CreateTable("t", []Column{{Name: "i", Type: KInt}, {Name: "s", Type: KString}, {Name: "f", Type: KFloat}})
	if _, err := tab.Insert(Row{Int(7), Str("abcde"), Null()}); err != nil {
		t.Fatal(err)
	}
	if got, want := db.StorageBytes(), int64(24+3*40+5); got != want {
		t.Errorf("StorageBytes = %d, want %d", got, want)
	}
}
