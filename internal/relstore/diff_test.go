package relstore

import (
	"math/rand"
	"reflect"
	"testing"
)

// slots reads a pinned table into row ID → row.
func slots(t *Table) map[int64]Row {
	out := map[int64]Row{}
	t.Scan(func(id int64, r Row) bool {
		out[id] = r
		return true
	})
	return out
}

// TestTableMarkDiffMatchesScan replays the MVCC suite's op log (inserts,
// updates, deletes, slot reuse, aborted transactions) over enough keys
// to span many row pages, marking the table after every transaction.
// For random pairs of marks, in both directions, patching the older
// side's rows with the diff must give exactly the newer side's rows,
// and the diff must have read only slots that differ.
func TestTableMarkDiffMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := newMvccDB(t)
	type pinned struct {
		mark *TableMark
		rows map[int64]Row
	}
	pin := func() pinned {
		tab := db.Snapshot().MustTable("acct")
		return pinned{mark: tab.Mark(), rows: slots(tab)}
	}
	pins := []pinned{pin()}
	for i, mtx := range genMvccLog(rng, 400, 20*pageSize) {
		if err := applyMvccTx(db, mtx); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		pins = append(pins, pin())
	}
	if n := pins[len(pins)-1].mark.Pages(); n < 4 {
		t.Fatalf("table spans %d pages, want several", n)
	}

	for trial := 0; trial < 300; trial++ {
		from, to := pins[rng.Intn(len(pins))], pins[rng.Intn(len(pins))]
		got := make(map[int64]Row, len(from.rows))
		for id, r := range from.rows {
			got[id] = r
		}
		ok := from.mark.Diff(to.mark, to.mark.Pages()+from.mark.Pages(), func(id int64, old, new Row) {
			if !reflect.DeepEqual(old, from.rows[id]) || !reflect.DeepEqual(new, to.rows[id]) {
				t.Fatalf("slot %d: diff says %v -> %v, the versions hold %v -> %v", id, old, new, from.rows[id], to.rows[id])
			}
			if sameRow(old, new) {
				t.Fatalf("slot %d visited though unchanged", id)
			}
			if new == nil {
				delete(got, id)
			} else {
				got[id] = new
			}
		})
		if !ok {
			t.Fatal("two versions of one table reported not diffable")
		}
		if !reflect.DeepEqual(got, to.rows) {
			t.Fatalf("trial %d: patched rows differ from the target version", trial)
		}
	}
}

// TestTableMarkDiffReadsOnlyChangedPages: one insert into a many-page
// table is one visited slot, a transaction on another table none, and a
// page budget below the number of differing pages refuses.
func TestTableMarkDiffReadsOnlyChangedPages(t *testing.T) {
	db := newMvccDB(t)
	tab := db.MustTable("acct")
	for k := 0; k < 10*pageSize; k++ {
		if _, err := tab.Insert(Row{Int(int64(k)), Str("alpha"), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Snapshot().MustTable("acct").Mark()
	if _, err := db.CreateTable("other", []Column{{Name: "k", Type: KInt}}); err != nil {
		t.Fatal(err)
	}
	visits := 0
	count := func(int64, Row, Row) { visits++ }
	if !before.Diff(db.Snapshot().MustTable("acct").Mark(), 0, count) || visits != 0 {
		t.Fatalf("untouched table: %d visits, want diffable with none", visits)
	}

	id, err := tab.Insert(Row{Int(-1), Str("beta"), Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	after := db.Snapshot().MustTable("acct").Mark()
	if !before.Diff(after, 1, func(got int64, old, new Row) {
		visits++
		if got != id || old != nil || new[1].S != "beta" {
			t.Fatalf("visited slot %d (%v -> %v), want the inserted row %d", got, old, new, id)
		}
	}) || visits != 1 {
		t.Fatalf("one insert: %d visits, want diffable with one", visits)
	}

	// Touch three pages; a budget of two refuses before calling fn.
	for _, k := range []int64{0, 3 * pageSize, 7 * pageSize} {
		ids, _ := tab.LookupEqual("pk", Int(k))
		tab.Delete(ids[0])
	}
	wide := db.Snapshot().MustTable("acct").Mark()
	visits = 0
	if after.Diff(wide, 2, count) || visits != 0 {
		t.Fatalf("three changed pages under a budget of two: diffed with %d visits", visits)
	}
	if !after.Diff(wide, 3, count) || visits != 3 {
		t.Fatalf("three changed pages under a budget of three: %d visits", visits)
	}
}

// TestTableMarkDiffTableIdentity: a table from another database (a
// loaded snapshot, a bootstrapped follower) is a different table and
// does not diff.
func TestTableMarkDiffTableIdentity(t *testing.T) {
	old := newMvccDB(t).MustTable("acct").Mark()
	if other := newMvccDB(t).MustTable("acct").Mark(); old.Diff(other, 100, func(int64, Row, Row) {}) {
		t.Fatal("tables of two databases diffed")
	}
}
