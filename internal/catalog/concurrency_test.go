package catalog

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// The stress test below races writer goroutines (Ingest, AddAttribute,
// SetPublished, Delete, collection membership) against reader goroutines
// (Evaluate, FetchDocument, collection queries) over a seeded workload
// and then verifies, object by object, that nothing was lost and every
// reconstructed document canonically matches its expected DOM. The
// HYBRIDCAT_STRESS environment variable raises the per-writer iteration
// count (the Makefile's stress target sets it); -short lowers it.

// objState tracks one object's expected state under the tracker lock.
// versions holds every DOM a concurrent reader may legitimately observe
// (grown before each AddAttribute commits); the last entry is the
// current expected document.
type objState struct {
	versions []*xmldoc.Node
	dx       float64
	deleted  bool
}

type tracker struct {
	mu            sync.Mutex
	objs          map[int64]*objState
	everPublished map[int64]bool
}

func (tr *tracker) add(id int64, dx float64, doc *xmldoc.Node) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.objs[id] = &objState{versions: []*xmldoc.Node{doc}, dx: dx}
}

func (tr *tracker) pushVersion(id int64, doc *xmldoc.Node) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := tr.objs[id]
	st.versions = append(st.versions, doc)
}

func (tr *tracker) latest(id int64) *xmldoc.Node {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := tr.objs[id]
	return st.versions[len(st.versions)-1]
}

func (tr *tracker) markDeleted(id int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.objs[id].deleted = true
}

func (tr *tracker) markPublished(id int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.everPublished[id] = true
}

// snapshot returns the tracked IDs and, for one chosen ID, the states a
// reader may legitimately observe right now.
func (tr *tracker) pick(r *rand.Rand) (id int64, versions []*xmldoc.Node, deleted bool, ok bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.objs) == 0 {
		return 0, nil, false, false
	}
	ids := make([]int64, 0, len(tr.objs))
	for oid := range tr.objs {
		ids = append(ids, oid)
	}
	id = ids[r.Intn(len(ids))]
	st := tr.objs[id]
	return id, append([]*xmldoc.Node(nil), st.versions...), st.deleted, true
}

func (tr *tracker) known(id int64) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, ok := tr.objs[id]
	return ok
}

// liveSet returns the tracked IDs not yet marked for deletion. Because
// an ID enters the tracker only after its ingest committed, and the
// deletion mark is set before the delete commits, an ID live in two
// liveSet snapshots existed in the catalog at every moment in between.
func (tr *tracker) liveSet() map[int64]bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[int64]bool, len(tr.objs))
	for id, st := range tr.objs {
		if !st.deleted {
			out[id] = true
		}
	}
	return out
}

func (tr *tracker) wasPublished(id int64) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.everPublished[id]
}

// withExtraTheme returns a copy of doc with a new <theme> fragment
// inserted where the catalog's reconstruction places it: among the
// keywords children, directly after the last existing theme (same
// global order, next clob_seq).
func withExtraTheme(t *testing.T, doc *xmldoc.Node, frag *xmldoc.Node) *xmldoc.Node {
	t.Helper()
	nd := doc.Clone()
	kws := nd.FindAll("keywords")
	if len(kws) == 0 {
		t.Fatal("document has no keywords node")
	}
	kw := kws[0]
	last := -1
	for i, ch := range kw.Children {
		if ch.Tag == "theme" {
			last = i
		}
	}
	fragCopy := frag.Clone()
	out := make([]*xmldoc.Node, 0, len(kw.Children)+1)
	out = append(out, kw.Children[:last+1]...)
	out = append(out, fragCopy)
	out = append(out, kw.Children[last+1:]...)
	kw.Children = out
	fragCopy.Parent = kw
	return nd
}

func themeFrag(t *testing.T, key string) *xmldoc.Node {
	t.Helper()
	frag, err := xmldoc.ParseString("<theme><themekt>stress</themekt><themekey>" + key + "</themekey></theme>")
	if err != nil {
		t.Fatal(err)
	}
	return frag
}

func stressIterations(t *testing.T) int {
	if s := os.Getenv("HYBRIDCAT_STRESS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad HYBRIDCAT_STRESS value %q", s)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 32
}

func TestConcurrentReadersWritersStress(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	iters := stressIterations(t)

	// Pre-flight: validate the withExtraTheme oracle sequentially before
	// trusting it inside the storm.
	{
		id, err := c.IngestXML("preflight", fig3Variant(t, "17"))
		if err != nil {
			t.Fatal(err)
		}
		before, err := c.FetchDocument(id)
		if err != nil {
			t.Fatal(err)
		}
		frag := themeFrag(t, "preflight-key")
		want := withExtraTheme(t, before, frag)
		if err := c.AddAttribute(id, "preflight", frag); err != nil {
			t.Fatal(err)
		}
		after, err := c.FetchDocument(id)
		if err != nil {
			t.Fatal(err)
		}
		if !xmldoc.Equal(after, want) {
			t.Fatalf("withExtraTheme oracle diverges from reconstruction:\nwant: %s\ngot:  %s",
				want.String(), after.String())
		}
		if ok, err := c.Delete(id); err != nil || !ok {
			t.Fatalf("preflight delete = %v, %v", ok, err)
		}
	}

	tr := &tracker{objs: map[int64]*objState{}, everPublished: map[int64]bool{}}
	collID, err := c.CreateCollection("stress", "admin", 0)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const readers = 4

	// Seed a few objects per writer so readers have work immediately.
	seedDx := func(w, i int) float64 { return float64(1000 + w*100 + i) }
	ownedBy := make([][]int64, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < 3; i++ {
			dx := seedDx(w, i)
			id, err := c.IngestXML(fmt.Sprintf("writer%d", w), fig3Variant(t, formatDx(dx)))
			if err != nil {
				t.Fatal(err)
			}
			doc, err := c.FetchDocument(id)
			if err != nil {
				t.Fatal(err)
			}
			tr.add(id, dx, doc)
			ownedBy[w] = append(ownedBy[w], id)
		}
	}

	done := make(chan struct{})
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			owner := fmt.Sprintf("writer%d", w)
			owned := ownedBy[w]
			for it := 0; it < iters; it++ {
				switch it % 4 {
				case 0: // ingest a fresh object with a unique dx
					dx := float64(2_000_000 + w*100_000 + it)
					id, err := c.IngestXML(owner, fig3Variant(t, formatDx(dx)))
					if err != nil {
						t.Errorf("writer %d: ingest: %v", w, err)
						return
					}
					doc, err := c.FetchDocument(id)
					if err != nil {
						t.Errorf("writer %d: fetch after ingest: %v", w, err)
						return
					}
					tr.add(id, dx, doc)
					owned = append(owned, id)
					if err := c.AddToCollection(collID, id); err != nil {
						t.Errorf("writer %d: add to collection: %v", w, err)
						return
					}
				case 1: // extend an owned object with another theme
					if len(owned) == 0 {
						continue
					}
					id := owned[it%len(owned)]
					frag := themeFrag(t, fmt.Sprintf("added-%d-%d", w, it))
					// Publish the post state to the tracker first: a reader
					// fetching between the commit and a later tracker update
					// must already find the new version listed.
					next := withExtraTheme(t, tr.latest(id), frag)
					tr.pushVersion(id, next)
					if err := c.AddAttribute(id, owner, frag); err != nil {
						t.Errorf("writer %d: add attribute: %v", w, err)
						return
					}
				case 2: // publish an owned object
					if len(owned) == 0 {
						continue
					}
					id := owned[it%len(owned)]
					// Mark before the commit so a stranger's query can never
					// observe a published object the tracker denies.
					tr.markPublished(id)
					if err := c.SetPublished(id, true); err != nil {
						t.Errorf("writer %d: publish: %v", w, err)
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
						t.Errorf("writer %d: delete of %d = %v, %v", w, id, ok, err)
						return
					}
				}
			}
		}(w)
	}
	go func() {
		wwg.Wait()
		close(done)
	}()

	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(7 + r)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 4 {
				case 0: // fetch a tracked object and canonical-compare
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
						// A fetch may only fail once a delete is in flight,
						// and the deletion mark is set before the delete
						// commits — so the mark must be visible by now.
						tr.mu.Lock()
						del := deleted || tr.objs[id].deleted
						tr.mu.Unlock()
						if !del {
							t.Errorf("reader %d: fetch of live object %d failed: %v", r, id, err)
							return
						}
						continue
					}
					// The fetched DOM must equal some version the tracker
					// has advertised. Re-pick the versions after the fetch
					// too: the write may have committed before our fetch but
					// after the first snapshot.
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
				case 1: // superuser theme query: no lost reads
					// Every object live both before and after the query
					// existed throughout it, and every seeded document has
					// theme attributes — so all such objects must appear.
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
				case 2: // stranger sees only ever-published objects
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
				case 3: // collection scope stays inside tracked objects
					// Memberships are added only after the tracker knows the
					// object, so every listed member must be tracked.
					ids, err := c.CollectionObjects(collID)
					if err != nil {
						t.Errorf("reader %d: collection objects: %v", r, err)
						return
					}
					for _, id := range ids {
						if !tr.known(id) {
							t.Errorf("reader %d: collection lists unknown object %d", r, id)
							return
						}
					}
					q := &Query{}
					q.Attr("theme", "")
					if _, err := c.EvaluateInContext(collID, q); err != nil {
						t.Errorf("reader %d: context evaluate: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	rwg.Wait()
	// A reader that failed returns before done closes; make sure every
	// writer has quiesced before the strict verification below.
	wwg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: strict, object-by-object verification.
	tr.mu.Lock()
	defer tr.mu.Unlock()
	live := 0
	for id, st := range tr.objs {
		if st.deleted {
			if _, err := c.FetchDocument(id); err == nil {
				t.Errorf("deleted object %d still reconstructs", id)
			}
			continue
		}
		live++
		doc, err := c.FetchDocument(id)
		if err != nil {
			t.Errorf("lost update: live object %d cannot be fetched: %v", id, err)
			continue
		}
		want := st.versions[len(st.versions)-1]
		if !xmldoc.Equal(doc, want) {
			t.Errorf("object %d: reconstructed document diverges from expected DOM:\nwant: %s\ngot:  %s",
				id, want.String(), doc.String())
		}
		// The unique-dx point query must find exactly this object.
		q := &Query{}
		q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Float(st.dx))
		ids, err := c.Evaluate(q)
		if err != nil {
			t.Errorf("object %d: dx query: %v", id, err)
			continue
		}
		if len(ids) != 1 || ids[0] != id {
			t.Errorf("object %d: dx=%v query returned %v, want exactly [%d]", id, st.dx, ids, id)
		}
	}
	if got := c.ObjectCount(); got != live {
		t.Errorf("object count = %d, tracker expects %d live objects", got, live)
	}
}

func docInVersions(doc *xmldoc.Node, versions []*xmldoc.Node) bool {
	for _, v := range versions {
		if xmldoc.Equal(doc, v) {
			return true
		}
	}
	return false
}

// formatDx renders a dx value the way the Figure 3 document carries it.
func formatDx(dx float64) string {
	return strconv.FormatFloat(dx, 'f', -1, 64)
}

// TestCachedUncachedOracleStress races readers over a cached and an
// uncached catalog that receive identical mutations in lockstep. Writers
// hold the pair lock exclusively while mutating both catalogs, so at
// every reader observation the two are byte-identical state machines:
// any divergence in evaluated IDs or reconstructed XML is a stale cache
// read. Readers repeat each query, so most answers come from the cache,
// and several readers share keys concurrently, racing misses that
// compute and store the same key under the race detector. A DOM oracle
// pins the reconstructed documents to the ingested originals.
func TestCachedUncachedOracleStress(t *testing.T) {
	cached := newLEADCatalog(t, Options{})
	plain := newLEADCatalog(t, Options{CacheSize: -1})
	iters := stressIterations(t) * 3

	// pair: writers take the write side to mutate both catalogs and the
	// oracle map as one atomic step; readers take the read side to see a
	// consistent (cached, uncached, dom) triple.
	var pair sync.RWMutex
	dom := map[int64]*xmldoc.Node{} // expected DOM per live object
	var liveIDs []int64
	var published []int64

	ingestBoth := func(dx float64) error {
		src := fig3Variant(t, formatDx(dx))
		id1, err := cached.IngestXML("sci", src)
		if err != nil {
			return err
		}
		id2, err := plain.IngestXML("sci", src)
		if err != nil {
			return err
		}
		if id1 != id2 {
			return fmt.Errorf("lockstep ingest diverged: ids %d vs %d", id1, id2)
		}
		doc, err := xmldoc.ParseString(src)
		if err != nil {
			return err
		}
		dom[id1] = doc
		liveIDs = append(liveIDs, id1)
		return nil
	}

	pair.Lock()
	for i := 0; i < 6; i++ {
		if err := ingestBoth(float64(3000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	pair.Unlock()

	done := make(chan struct{})
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for it := 0; it < iters; it++ {
			pair.Lock()
			switch it % 4 {
			case 0, 1: // grow: fresh unique dx
				if err := ingestBoth(float64(5_000_000 + it)); err != nil {
					t.Error(err)
					pair.Unlock()
					return
				}
			case 2: // publish the oldest unpublished object
				if len(liveIDs) > 0 {
					id := liveIDs[it%len(liveIDs)]
					if err := cached.SetPublished(id, true); err != nil {
						t.Error(err)
						pair.Unlock()
						return
					}
					if err := plain.SetPublished(id, true); err != nil {
						t.Error(err)
						pair.Unlock()
						return
					}
					published = append(published, id)
				}
			case 3: // shrink: delete the oldest live object
				if len(liveIDs) > 2 {
					id := liveIDs[0]
					liveIDs = liveIDs[1:]
					delete(dom, id)
					ok1, err1 := cached.Delete(id)
					ok2, err2 := plain.Delete(id)
					if !ok1 || !ok2 || err1 != nil || err2 != nil {
						t.Errorf("lockstep delete of %d failed: %v/%v, %v/%v", id, ok1, ok2, err1, err2)
						pair.Unlock()
						return
					}
				}
			}
			pair.Unlock()
		}
	}()
	go func() {
		wwg.Wait()
		close(done)
	}()

	const readers = 4
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(31 + r)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				pair.RLock()
				q := &Query{}
				if i%3 == 2 {
					q.Owner = "stranger" // only sees published objects
				}
				if i%2 == 0 {
					q.Attr("theme", "")
				} else {
					q.Attr("grid", "ARPS")
				}
				// Evaluate twice on the cached side so the second answer is
				// served from the cache, then require exact agreement with
				// the uncached catalog at the same locked state.
				first, err1 := cached.Evaluate(q)
				again, err1b := cached.Evaluate(q)
				want, err2 := plain.Evaluate(q)
				if (err1 == nil) != (err2 == nil) || err1b != nil && err1 == nil {
					t.Errorf("reader %d: error divergence: %v / %v / %v", r, err1, err1b, err2)
					pair.RUnlock()
					return
				}
				if !slices.Equal(first, want) || !slices.Equal(again, want) {
					t.Errorf("reader %d: stale cached result: cold %v warm %v oracle %v", r, first, again, want)
					pair.RUnlock()
					return
				}
				// DOM oracle: a random live object must reconstruct, from
				// the cached catalog, to exactly its ingested document.
				if len(liveIDs) > 0 {
					id := liveIDs[rng.Intn(len(liveIDs))]
					doc, err := cached.FetchDocument(id)
					if err != nil {
						t.Errorf("reader %d: fetch live %d: %v", r, id, err)
						pair.RUnlock()
						return
					}
					if wantDoc := dom[id]; !xmldoc.Equal(doc, wantDoc) {
						t.Errorf("reader %d: object %d reconstruction diverged from DOM oracle:\nwant: %s\ngot:  %s",
							r, id, wantDoc.String(), doc.String())
						pair.RUnlock()
						return
					}
				}
				pair.RUnlock()
			}
		}(r)
	}
	rwg.Wait()
	wwg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: every live object agrees across both catalogs and with
	// its DOM, and the stranger's view is exactly the published set.
	for id, want := range dom {
		for _, cat := range []*Catalog{cached, plain} {
			doc, err := cat.FetchDocument(id)
			if err != nil {
				t.Errorf("object %d: %v", id, err)
				continue
			}
			if !xmldoc.Equal(doc, want) {
				t.Errorf("object %d diverged after quiesce", id)
			}
		}
	}
	q := &Query{Owner: "stranger"}
	q.Attr("theme", "")
	a, err1 := cached.Evaluate(q)
	b, err2 := plain.Evaluate(q)
	if err1 != nil || err2 != nil || !slices.Equal(a, b) {
		t.Errorf("published view diverged: %v (%v) vs %v (%v)", a, err1, b, err2)
	}
	stats := cached.CacheStats()
	if stats.Evaluate.Hits == 0 {
		t.Errorf("stress never hit the evaluate cache: %+v", stats.Evaluate)
	}
}

// TestIngestAutoRegisterRace: 32 concurrent writers ingest Figure 3 on
// an auto-registering catalog. Each ingest registers what it does not
// find under the write lock, so the racing registrations of the same
// dynamic definitions leave exactly one, and all 32 documents resolve
// to it.
func TestIngestAutoRegisterRace(t *testing.T) {
	c, err := Open(xmlschema.MustLEAD(), Options{AutoRegister: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.IngestXML("u", xmlschema.Figure3Document); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	count := 0
	for _, d := range c.Reg.Defs().Attrs() {
		if d.Name == "grid" && d.Source == "ARPS" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("grid registered %d times", count)
	}
	q := &Query{}
	q.Attr("grid", "ARPS")
	hits, err := c.Evaluate(q)
	if err != nil || len(hits) != writers {
		t.Fatalf("query = %d hits, %v", len(hits), err)
	}
}
