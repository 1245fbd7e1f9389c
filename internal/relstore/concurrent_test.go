package relstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadersWriters drives the read paths the catalog's
// parallel query pipeline relies on — index lookups, snapshot scans, and
// operator trees over them — against racing writers, under the race
// detector. Iterators are single-use and per-goroutine by contract; what
// this test pins down is that the shared table state those iterators
// draw from (row slots, hash and B-tree indexes, the free list) is safe
// for any number of concurrent readers alongside a mutating writer.
func TestConcurrentReadersWriters(t *testing.T) {
	s, err := NewSchema("events",
		Column{Name: "k", Type: KInt, NotNull: true},
		Column{Name: "s", Type: KString},
		Column{Name: "n", Type: KFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(s)
	if _, err := tab.CreateIndex("by_k", HashIndex, false, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("by_sn", BTreeIndex, false, "s", "n"); err != nil {
		t.Fatal(err)
	}
	labels := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 256; i++ {
		if _, err := tab.Insert(Row{Int(int64(i % 16)), Str(labels[i%len(labels)]), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers   = 2
		readers   = 4
		writerOps = 400
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writerOps; i++ {
				switch i % 3 {
				case 0:
					if _, err := tab.Insert(Row{Int(int64(w*100 + i%16)), Str(labels[i%len(labels)]), Float(float64(i))}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					ids, err := tab.LookupEqual("by_k", Int(int64(i%16)))
					if err != nil {
						t.Error(err)
						return
					}
					if len(ids) > 0 {
						if r := tab.Get(ids[0]); r != nil {
							nr := CloneRow(r)
							nr[2] = Float(float64(i) + 0.5)
							// The row may have been deleted by the other
							// writer between Get and Update; that error is
							// expected and not a failure.
							_ = tab.Update(ids[0], nr)
						}
					}
				case 2:
					ids, err := tab.LookupEqual("by_k", Int(int64((w*100+i)%16)))
					if err != nil {
						t.Error(err)
						return
					}
					if len(ids) > 1 {
						tab.Delete(ids[len(ids)-1])
					}
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Index probes.
				ids, err := tab.LookupEqual("by_k", Int(int64(i%16)))
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range Collect(ScanRowIDs(tab, ids)) {
					if len(row) != 3 || row[0].IsNull() {
						t.Errorf("reader %d: malformed row %v", r, row)
						return
					}
				}
				// Range over the composite B-tree.
				lo := RangeBound{Vals: []Value{Str("beta")}, Inclusive: true, Set: true}
				hi := RangeBound{Vals: []Value{Str("gamma")}, Inclusive: true, Set: true}
				if _, err := tab.LookupRange("by_sn", lo, hi); err != nil {
					t.Error(err)
					return
				}
				// Snapshot scan feeding an operator tree, the way the
				// SQL surface composes them.
				it := Sort(
					Filter(ScanTable(tab), func(row Row) bool { return !row[2].IsNull() }),
					SortSpec{Col: 0},
				)
				var prev int64 = -1 << 62
				for {
					row, ok := it.Next()
					if !ok {
						break
					}
					if row[0].I < prev {
						t.Errorf("reader %d: sort order violated", r)
						return
					}
					prev = row[0].I
				}
				// Aggregation over a join of two independent scans.
				counts := GroupBy(
					HashJoin(ScanTable(tab), ScanTable(tab), []int{0}, []int{0}, InnerJoin),
					[]int{0}, []AggSpec{{Func: AggCount, Col: 0, Name: "n"}},
				)
				for {
					row, ok := counts.Next()
					if !ok {
						break
					}
					if row[1].I < 1 {
						t.Errorf("reader %d: impossible group count %v", r, row)
						return
					}
				}
			}
		}(r)
	}
	rg.Wait()
}

// TestDatabaseConcurrentTempTables checks the documented discipline for
// scratch tables under concurrency: per-goroutine names plus DropTable,
// with churn in one goroutine never disturbing readers of shared tables.
func TestDatabaseConcurrentTempTables(t *testing.T) {
	db := NewDatabase()
	base, err := db.CreateTable("base", Column{Name: "v", Type: KInt, NotNull: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := base.Insert(Row{Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("scratch_%d", w)
			for i := 0; i < 100; i++ {
				tmp, err := db.CreateTempTable(name, Column{Name: "v", Type: KInt, NotNull: true})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tmp.Insert(Row{Int(int64(w*1000 + i))}); err != nil {
					t.Error(err)
					return
				}
				if got := len(Collect(ScanTable(base))); got != 64 {
					t.Errorf("worker %d: base scan saw %d rows, want 64", w, got)
					return
				}
				if err := db.DropTable(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
