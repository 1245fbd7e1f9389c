package catalog

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// FuzzSnapshotSwapInterleavings drives fuzz-chosen interleavings of
// every mutation class that publishes a new version — ingest, document
// extension, publication, deletion, and dynamic definition registration,
// whose version carries the new definition — against concurrent readers
// on the lock-free snapshot path. It extends the baseline package's
// FuzzConcurrentIngestEvaluate to the swap machinery itself: readers
// assert the database epoch never moves backwards, and reuse the DOM
// oracle from concurrency_test.go to pin every fetched document to a
// version the tracker advertised. Each op byte selects the mutation kind
// and its publish bit, so the corpus explores orderings (e.g. a
// registration racing a pinned evaluation) that the fixed-schedule
// stress test never hits.
func FuzzSnapshotSwapInterleavings(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(5), []byte{0xff, 0x3c, 0x81, 0x00, 0x42, 0x99})
	f.Add(int64(9), []byte("swap the pointer"))
	f.Add(int64(13), []byte{4, 4, 4, 1, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) == 0 {
			t.Skip("no operations")
		}
		if len(ops) > 24 {
			ops = ops[:24]
		}
		c := newLEADCatalog(t, Options{})
		tr := &tracker{objs: map[int64]*objState{}, everPublished: map[int64]bool{}}

		// Seed two objects so readers have work from the first iteration.
		var owned []int64
		for i := 0; i < 2; i++ {
			dx := float64(9000 + i)
			id, err := c.IngestXML("alice", fig3Variant(t, formatDx(dx)))
			if err != nil {
				t.Fatal(err)
			}
			doc, err := c.FetchDocument(id)
			if err != nil {
				t.Fatal(err)
			}
			tr.add(id, dx, doc)
			owned = append(owned, id)
		}

		done := make(chan struct{})
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			defer close(done)
			for i, b := range ops {
				switch b % 5 {
				case 0: // ingest a fresh object, publish if the high bit says so
					dx := float64(7_000_000 + i)
					id, err := c.IngestXML("alice", fig3Variant(t, formatDx(dx)))
					if err != nil {
						t.Errorf("op %d: ingest: %v", i, err)
						return
					}
					doc, err := c.FetchDocument(id)
					if err != nil {
						t.Errorf("op %d: fetch after ingest: %v", i, err)
						return
					}
					tr.add(id, dx, doc)
					owned = append(owned, id)
					if b&0x80 != 0 {
						tr.markPublished(id)
						if err := c.SetPublished(id, true); err != nil {
							t.Errorf("op %d: publish: %v", i, err)
							return
						}
					}
				case 1: // extend an owned document with another theme
					if len(owned) == 0 {
						continue
					}
					id := owned[int(b)%len(owned)]
					frag := themeFrag(t, fmt.Sprintf("fuzz-%d-%d", i, b))
					next := withExtraTheme(t, tr.latest(id), frag)
					tr.pushVersion(id, next)
					if err := c.AddAttribute(id, "alice", frag); err != nil {
						t.Errorf("op %d: add attribute: %v", i, err)
						return
					}
				case 2: // publish an owned object
					if len(owned) == 0 {
						continue
					}
					id := owned[int(b)%len(owned)]
					tr.markPublished(id)
					if err := c.SetPublished(id, true); err != nil {
						t.Errorf("op %d: publish: %v", i, err)
						return
					}
				case 3: // delete the oldest owned object
					if len(owned) < 2 {
						continue
					}
					id := owned[0]
					owned = owned[1:]
					tr.markDeleted(id)
					if ok, err := c.Delete(id); err != nil || !ok {
						t.Errorf("op %d: delete of %d = %v, %v", i, id, ok, err)
						return
					}
				case 4: // registry rebuild: register a fresh dynamic definition
					def, err := c.RegisterAttr(fmt.Sprintf("fuzzattr%d", i), "ARPS", 0, "")
					if err != nil {
						t.Errorf("op %d: register attr: %v", i, err)
						return
					}
					if _, err := c.RegisterElem(fmt.Sprintf("fuzzelem%d", i), "ARPS", def.ID, core.DTString, ""); err != nil {
						t.Errorf("op %d: register elem: %v", i, err)
						return
					}
				}
			}
		}()

		const readers = 2
		var rwg sync.WaitGroup
		for r := 0; r < readers; r++ {
			rwg.Add(1)
			go func(r int) {
				defer rwg.Done()
				rng := rand.New(rand.NewSource(seed + int64(r)))
				var lastEpoch uint64
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					// The swap-path invariant: published versions only move
					// forward.
					if e := c.DB.Generation(); e < lastEpoch {
						t.Errorf("reader %d: db epoch went backwards: %d after %d", r, e, lastEpoch)
						return
					} else {
						lastEpoch = e
					}
					switch i % 3 {
					case 0: // DOM oracle on a tracked object
						id, versions, deleted, ok := tr.pick(rng)
						if !ok {
							continue
						}
						doc, err := c.FetchDocument(id)
						if err != nil {
							if !strings.Contains(err.Error(), "no object") {
								t.Errorf("reader %d: unexpected fetch error: %v", r, err)
								return
							}
							tr.mu.Lock()
							del := deleted || tr.objs[id].deleted
							tr.mu.Unlock()
							if !del {
								t.Errorf("reader %d: fetch of live object %d failed: %v", r, id, err)
								return
							}
							continue
						}
						match := docInVersions(doc, versions)
						if !match {
							tr.mu.Lock()
							if st := tr.objs[id]; st != nil {
								match = docInVersions(doc, st.versions)
							}
							tr.mu.Unlock()
						}
						if !match {
							t.Errorf("reader %d: object %d fetched a document matching no advertised version:\n%s",
								r, id, doc.String())
							return
						}
					case 1: // superuser theme query: no lost reads across swaps
						pre := tr.liveSet()
						q := &Query{}
						q.Attr("theme", "")
						ids, err := c.Evaluate(q)
						if err != nil {
							t.Errorf("reader %d: evaluate: %v", r, err)
							return
						}
						post := tr.liveSet()
						got := make(map[int64]bool, len(ids))
						for _, id := range ids {
							got[id] = true
						}
						for id := range pre {
							if post[id] && !got[id] {
								t.Errorf("reader %d: query lost object %d that was live throughout", r, id)
								return
							}
						}
					case 2: // stranger privacy across registry rebuilds
						q := &Query{Owner: "stranger"}
						q.Attr("theme", "")
						ids, err := c.Evaluate(q)
						if err != nil {
							t.Errorf("reader %d: stranger evaluate: %v", r, err)
							return
						}
						for _, id := range ids {
							if !tr.wasPublished(id) {
								t.Errorf("reader %d: stranger saw never-published object %d", r, id)
								return
							}
						}
					}
				}
			}(r)
		}
		rwg.Wait()
		wwg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		// Quiesced: every live object reconstructs to its final tracked DOM.
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for id, st := range tr.objs {
			if st.deleted {
				if _, err := c.FetchDocument(id); err == nil {
					t.Errorf("deleted object %d still reconstructs", id)
				}
				continue
			}
			doc, err := c.FetchDocument(id)
			if err != nil {
				t.Errorf("live object %d cannot be fetched: %v", id, err)
				continue
			}
			if want := st.versions[len(st.versions)-1]; !xmldoc.Equal(doc, want) {
				t.Errorf("object %d diverged after quiesce:\nwant: %s\ngot:  %s",
					id, want.String(), doc.String())
			}
		}
	})
}

// FuzzDecodeRecord checks the log record codec on arbitrary bytes, as
// they may arrive over the replication stream or a rebalance import:
// decodeRecord returns an error or ops, never panics, allocates a
// bounded multiple of its input, and any ops it returns survive
// encodeRecord → decodeRecord exactly. Seeds are the records a durable
// catalog logs for every op kind, a batch and an import, and malformed
// payloads: a trailing byte, an unknown kind, and a physical row-op
// payload of the HCWAL02 era, which must be refused.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range fuzzRecordSeeds(f) {
		f.Add(rec)
	}
	physical := binary.AppendUvarint(nil, 1) // one row op, then the table name
	physical = binary.AppendUvarint(physical, uint64(len(TObjects)))
	physical = append(append(physical, TObjects...), 0, 1) // insert, row present
	physical = relstore.AppendRow(physical, relstore.Row{relstore.Int(1), relstore.Str("r"), relstore.Str("scientist"),
		relstore.Str("2026-01-02T03:04:05Z"), relstore.Bool(false)})
	if _, err := decodeRecord(physical); err == nil {
		f.Fatal("a physical HCWAL02-era payload decoded")
	}
	f.Add(physical)
	f.Add(append(encodeRecord([]op{{kind: opDelete, id: 7}}), 0))   // trailing byte
	f.Add([]byte{recordFormat, byte(opRemoveMember) + 1, 2, 2})     // unknown kind
	f.Add([]byte{recordFormat, byte(opIngest), 2, 0xe8, 0x07, 'x'}) // string longer than the input
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []op
		var err error
		if n := allocatedBytes(func() { ops, err = decodeRecord(data) }); n > 256*uint64(len(data))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		got, err := decodeRecord(encodeRecord(ops))
		if err != nil || len(got) != len(ops) {
			t.Fatalf("re-encoded %d ops decode as %d, err %v", len(ops), len(got), err)
		}
		for i := range ops {
			if !opsEqual(got[i], ops[i]) {
				t.Fatalf("op %d: %+v re-decodes as %+v", i, ops[i], got[i])
			}
		}
	})
}

// fuzzRecordSeeds returns the payloads a durable catalog logs for one
// mutation of every kind (an auto-registering ingest's record holds its
// define ops too; a tree ingest's, the tree's serialization), and the
// local record of an ImportWAL of all of them.
func fuzzRecordSeeds(f *testing.F) [][]byte {
	open := func() *Catalog {
		c, err := OpenDurable(xmlschema.MustLEAD(), Options{AutoRegister: true, Lenient: true},
			DurabilityOptions{FS: faultio.NewMemFS(), WALPath: "fuzz.wal"})
		if err != nil {
			f.Fatal(err)
		}
		return c
	}
	c := open()
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	grid, err := c.RegisterAttr("grid", "ARPS", 0, "alice")
	must(err)
	_, err = c.RegisterElem("dx", "ARPS", grid.ID, core.DTFloat, "alice")
	must(err)
	id, err := c.IngestXML("scientist", xmlschema.Figure3Document)
	must(err)
	doc, err := xmldoc.ParseString(xmlschema.Figure3Document)
	must(err)
	_, err = c.Ingest("scientist", doc)
	must(err)
	frag, err := xmldoc.ParseString("<theme><themekt>fuzz</themekt><themekey>seed</themekey></theme>")
	must(err)
	must(c.AddAttribute(id, "scientist", frag))
	must(c.SetPublished(id, true))
	coll, err := c.CreateCollection("storms", "scientist", 0)
	must(err)
	must(c.AddToCollection(coll, id))
	_, err = c.RemoveFromCollection(coll, id)
	must(err)
	_, err = c.Delete(id)
	must(err)
	recs, _, _, err := c.WALSince(0)
	must(err)
	if len(recs) != 10 {
		f.Fatalf("logged %d records, want 10", len(recs))
	}
	dst := open()
	must(dst.ImportWAL(recs))
	imported, _, _, err := dst.WALSince(0)
	must(err)
	var out [][]byte
	for _, rec := range append(recs, imported...) {
		out = append(out, rec.Payload)
	}
	return out
}

// opsEqual compares two decoded ops field by field (a decoded op holds
// no tree).
func opsEqual(a, b op) bool {
	if (a.attr == nil) != (b.attr == nil) || (a.elem == nil) != (b.elem == nil) ||
		a.attr != nil && *a.attr != *b.attr || a.elem != nil && *a.elem != *b.elem {
		return false
	}
	a.attr, b.attr, a.elem, b.elem = nil, nil, nil, nil
	return a == b
}

// allocatedBytes returns the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
