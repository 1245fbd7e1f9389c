package relstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	s, err := NewSchema("people",
		Column{Name: "id", Type: KInt, NotNull: true},
		Column{Name: "name", Type: KString, NotNull: true},
		Column{Name: "age", Type: KInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(s)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("t", Column{Name: "a", Type: KInt}, Column{Name: "a", Type: KInt}); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewSchema("t", Column{Name: "", Type: KInt}); err == nil {
		t.Error("empty column name should fail")
	}
	s := MustSchema("t", Column{Name: "a", Type: KInt}, Column{Name: "b", Type: KString})
	if s.ColIndex("b") != 1 || s.ColIndex("missing") != -1 {
		t.Error("ColIndex misbehaved")
	}
	if _, err := s.ColIndexes("a", "zzz"); err == nil {
		t.Error("ColIndexes with unknown column should fail")
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
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("by_name", false, "name"); err != nil {
		t.Fatal(err)
	}
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
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("by_age", false, "age"); err != nil {
		t.Fatal(err)
	}
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
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("by_name_age", false, "name", "age"); err != nil {
		t.Fatal(err)
	}
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

func TestUniqueIndexViolationRollsBack(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("pk", true, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("by_name", false, "name"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(Row{Int(1), Str("ada"), Null()}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(Row{Int(1), Str("dup"), Null()}); err == nil {
		t.Fatal("duplicate pk should fail")
	}
	if tab.Len() != 1 {
		t.Errorf("failed insert left the table with %d rows", tab.Len())
	}
	// The secondary index must not retain an entry for the rejected row.
	ids, _ := tab.LookupEqual("by_name", Str("dup"))
	if len(ids) != 0 {
		t.Error("failed insert leaked a secondary index entry")
	}
}

func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("by_name", false, "name"); err != nil {
		t.Fatal(err)
	}
	id, _ := tab.Insert(Row{Int(1), Str("before"), Null()})
	if err := tab.Update(id, Row{Int(1), Str("after"), Int(5)}); err != nil {
		t.Fatal(err)
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

func TestCreateIndexOverExistingRows(t *testing.T) {
	tab := newTestTable(t)
	for i := 0; i < 20; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Str("n"), Int(int64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.CreateIndex("late", false, "age"); err != nil {
		t.Fatal(err)
	}
	ids, _ := tab.LookupEqual("late", Int(2))
	if len(ids) != 5 {
		t.Errorf("late index lookup returned %d rows, want 5", len(ids))
	}
	// Duplicate index name fails.
	if _, err := tab.CreateIndex("late", false, "age"); err == nil {
		t.Error("duplicate index name should fail")
	}
	// Unique index over duplicate data fails.
	if _, err := tab.CreateIndex("uniq", true, "name"); err == nil {
		t.Error("unique index over duplicates should fail")
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.CreateIndex("by_age", false, "age"); err != nil {
		t.Fatal(err)
	}
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
	if _, err := db.CreateTable("a", Column{Name: "x", Type: KInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", Column{Name: "x", Type: KInt}); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.CreateTable("b", Column{Name: "y", Type: KString}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(db.TableNames(), ","); got != "a,b" {
		t.Errorf("TableNames = %s", got)
	}
}

func TestStorageBytesGrows(t *testing.T) {
	db := NewDatabase()
	tab, _ := db.CreateTable("t", Column{Name: "s", Type: KString})
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
	tab, _ := db.CreateTable("t", Column{Name: "i", Type: KInt}, Column{Name: "s", Type: KString}, Column{Name: "f", Type: KFloat})
	if _, err := tab.Insert(Row{Int(7), Str("abcde"), Null()}); err != nil {
		t.Fatal(err)
	}
	if got, want := db.StorageBytes(), int64(24+3*40+5); got != want {
		t.Errorf("StorageBytes = %d, want %d", got, want)
	}
}
