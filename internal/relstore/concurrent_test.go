package relstore

import (
	"sync"
	"testing"
)

// TestConcurrentReadersWriters drives the read paths the catalog's
// query pipeline relies on — index lookups, row fetches and snapshot
// scans — against racing writers, under the race detector. It pins down
// that the shared table state those reads draw from (row slots, hash and
// B-tree indexes, the free list) is safe for any number of concurrent
// readers alongside a mutating writer, and that a pinned snapshot's scan
// and index probes agree with each other however the writers move on.
func TestConcurrentReadersWriters(t *testing.T) {
	tab, err := NewDatabase().CreateTable("events", []Column{
		{Name: "k", Type: KInt, NotNull: true},
		{Name: "s", Type: KString},
		{Name: "n", Type: KFloat},
	}, plainIx("by_k", "k"), plainIx("by_sn", "s", "n"))
	if err != nil {
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
						// An update: Delete and Insert in one
						// transaction. The other writer may have deleted
						// the row since the probe; then there is nothing
						// to update.
						tx := tab.db.Begin()
						xt := tx.Table("events")
						if r := xt.Get(ids[0]); r != nil {
							nr := CloneRow(r)
							nr[2] = Float(float64(i) + 0.5)
							xt.Delete(ids[0])
							if _, err := xt.Insert(nr); err != nil {
								tx.Abort()
								t.Error(err)
								return
							}
						}
						tx.Commit()
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
				for _, id := range ids {
					row := tab.Get(id)
					if row == nil {
						continue // deleted since the probe
					}
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
				// A pinned snapshot: its scan, its row count and its
				// index probes all read one version.
				pinned := tab.db.Snapshot().MustTable("events")
				perKey := map[int64]int{}
				n := 0
				pinned.Scan(func(_ int64, row Row) bool {
					perKey[row[0].I]++
					n++
					return true
				})
				if n != pinned.Len() {
					t.Errorf("reader %d: snapshot scan saw %d rows, Len %d", r, n, pinned.Len())
					return
				}
				k := int64(i % 16)
				kids, err := pinned.LookupEqual("by_k", Int(k))
				if err != nil {
					t.Error(err)
					return
				}
				if len(kids) != perKey[k] {
					t.Errorf("reader %d: snapshot probe k=%d found %d rows, scan %d", r, k, len(kids), perKey[k])
					return
				}
				for _, id := range kids {
					if row := pinned.Get(id); row == nil || row[0].I != k {
						t.Errorf("reader %d: snapshot probe k=%d returned row %v", r, k, row)
						return
					}
				}
			}
		}(r)
	}
	rg.Wait()
}
