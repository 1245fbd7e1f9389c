// The response-cache oracle: every response a reader is served must
// equal a fresh §5 build on the same pinned view, byte for byte and as a
// JSON literal, with the read caches on and off, across the writes that
// can change a cached document (AddAttribute, delete), the writes that
// must not (an unrelated ingest, unpublish), a view pinned before a
// write, a follower, and a 4-shard cluster across a rebalance. It is an
// external test package because the cluster case imports internal/shard.
package catalog_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func oracleKey(i int) string { return fmt.Sprintf("oracle-key-%04d", i) }

// oracleDoc is the Figure 3 document with a themekey unique to i.
func oracleDoc(i int) string {
	return strings.Replace(xmlschema.Figure3Document, "convective_precipitation_amount", oracleKey(i), 1)
}

func oracleFrag(t testing.TB, key string) *xmldoc.Node {
	frag, err := xmldoc.ParseString("<theme><themekt>oracle</themekt><themekey>" + key + "</themekey></theme>")
	if err != nil {
		t.Fatal(err)
	}
	return frag
}

func keyQuery(user, key string) *catalog.Query {
	q := &catalog.Query{Owner: user}
	q.Attr("theme", "").AddElem("themekey", "", relstore.OpEq, relstore.Str(key))
	return q
}

func jsonLiteral(s string) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s)
	return strings.TrimSuffix(b.String(), "\n")
}

type pinnedResponses = func(ids []int64) ([]catalog.Response, map[int64]string, error)

// judge runs a pinned view's served and fresh builds for ids and
// requires them to agree: each served document's XML and JSON literal
// equal the fresh build's, and the served set is exactly the set of
// objects the fresh build finds. It returns the served XML by ID.
func judge(pin pinnedResponses, ids []int64) (map[int64]string, error) {
	served, fresh, err := pin(ids)
	if err != nil {
		return nil, err
	}
	got := make(map[int64]string, len(served))
	for _, r := range served {
		want, ok := fresh[r.ObjectID]
		if !ok {
			return nil, fmt.Errorf("object %d served, but a fresh build finds no such object", r.ObjectID)
		}
		if r.XML != want {
			return nil, fmt.Errorf("object %d: served bytes differ from a fresh build:\nserved: %s\nfresh:  %s", r.ObjectID, r.XML, want)
		}
		if lit := string(r.AppendJSONString(nil)); lit != jsonLiteral(want) {
			return nil, fmt.Errorf("object %d: served JSON literal is not the fresh build's:\nserved: %s", r.ObjectID, lit)
		}
		got[r.ObjectID] = r.XML
	}
	if len(got) != len(fresh) {
		return nil, fmt.Errorf("served %d objects, a fresh build finds %d", len(got), len(fresh))
	}
	return got, nil
}

func checkPinned(t *testing.T, what string, pin pinnedResponses, ids ...int64) map[int64]string {
	t.Helper()
	got, err := judge(pin, ids)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return got
}

func checkServed(t *testing.T, what string, c *catalog.Catalog, ids ...int64) map[int64]string {
	t.Helper()
	return checkPinned(t, what, c.PinResponses(), ids...)
}

// respCounters tracks the response layer's hit and stale counters so a
// step can assert what it cost; with caches off every delta is zero.
type respCounters struct {
	t           *testing.T
	c           *catalog.Catalog
	on          bool
	hits, stale uint64
}

func (r *respCounters) mark() {
	st := r.c.CacheStats().Response
	r.hits, r.stale = st.Hits, st.Stale
}

func (r *respCounters) expect(what string, hits, stale uint64) {
	r.t.Helper()
	if !r.on {
		hits, stale = 0, 0
	}
	st := r.c.CacheStats().Response
	if st.Hits-r.hits != hits || st.Stale-r.stale != stale {
		r.t.Fatalf("%s: response layer %d hits, %d stale drops; want %d, %d", what, st.Hits-r.hits, st.Stale-r.stale, hits, stale)
	}
}

// forCacheModes runs fn with the read caches on and off.
func forCacheModes(t *testing.T, fn func(t *testing.T, opts catalog.Options, on bool)) {
	for _, m := range []struct {
		name string
		size int
	}{{"cache-on", 0}, {"cache-off", -1}} {
		t.Run(m.name, func(t *testing.T) {
			fn(t, catalog.Options{AutoRegister: true, CacheSize: m.size}, m.size >= 0)
		})
	}
}

func TestResponseCacheOracle(t *testing.T) {
	forCacheModes(t, func(t *testing.T, opts catalog.Options, on bool) {
		t.Run("single", func(t *testing.T) { oracleSingle(t, opts, on) })
		t.Run("follower", func(t *testing.T) { oracleFollower(t, opts, on) })
		t.Run("cluster", func(t *testing.T) { oracleCluster(t, opts) })
		t.Run("concurrent", func(t *testing.T) { oracleConcurrent(t, opts) })
	})
}

func oracleSingle(t *testing.T, opts catalog.Options, on bool) {
	c, err := catalog.Open(xmlschema.MustLEAD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(i int, owner string) int64 {
		t.Helper()
		id, err := c.IngestXML(owner, oracleDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetPublished(id, true); err != nil {
			t.Fatal(err)
		}
		return id
	}
	a, b, d := ingest(0, "alice"), ingest(1, "alice"), ingest(2, "carol")
	n := &respCounters{t: t, c: c, on: on}
	warm := checkServed(t, "cold", c, a, b, d)

	ingest(3, "dave")
	n.mark()
	if got := checkServed(t, "after an unrelated ingest", c, a); got[a] != warm[a] {
		t.Fatal("an unrelated ingest changed a document")
	}
	n.expect("after an unrelated ingest", 1, 0)

	old := c.PinResponses()
	if err := c.AddAttribute(b, "alice", oracleFrag(t, "added-to-b")); err != nil {
		t.Fatal(err)
	}
	n.mark()
	if got := checkServed(t, "after AddAttribute", c, b); got[b] == warm[b] || !strings.Contains(got[b], "added-to-b") {
		t.Fatalf("after AddAttribute the object's document is unchanged: %s", got[b])
	}
	n.expect("after AddAttribute", 0, 1)
	if got := checkPinned(t, "a view pinned before AddAttribute", old, b); got[b] != warm[b] {
		t.Fatal("a view pinned before AddAttribute was served the new document")
	}
	checkServed(t, "after the older view's build", c, b)

	n.mark()
	if ok, err := c.Delete(d); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if got := checkServed(t, "after delete", c, d, a); len(got) != 1 || got[a] != warm[a] {
		t.Fatalf("after delete: served %d documents", len(got))
	}
	n.expect("after delete", 1, 1)
	if _, err := c.FetchDocument(d); err == nil {
		t.Fatal("fetch of a deleted object succeeded")
	}

	search := func(user string) []catalog.Response {
		t.Helper()
		resp, err := c.Search(keyQuery(user, oracleKey(0)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := search("bob"); len(resp) != 1 || resp[0].XML != warm[a] {
		t.Fatalf("bob before unpublish: %d responses", len(resp))
	}
	if err := c.SetPublished(a, false); err != nil {
		t.Fatal(err)
	}
	if resp := search("bob"); len(resp) != 0 {
		t.Fatalf("bob was served alice's unpublished document (%d responses)", len(resp))
	}
	n.mark()
	if resp := search("alice"); len(resp) != 1 || resp[0].XML != warm[a] {
		t.Fatalf("alice after unpublish: %d responses", len(resp))
	}
	n.expect("the owner's search after unpublish", 1, 0)
	checkServed(t, "after unpublish", c, a, b)
}

func oracleFollower(t *testing.T, opts catalog.Options, on bool) {
	primary, err := catalog.OpenDurable(xmlschema.MustLEAD(), opts, catalog.DurabilityOptions{FS: faultio.NewMemFS(), WALPath: "primary.wal"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 3; i++ {
		id, err := primary.IngestXML("alice", oracleDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var snap bytes.Buffer
	seq, err := primary.ReplicationSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	f, err := catalog.LoadFollower(xmlschema.MustLEAD(), opts, &snap)
	if err != nil {
		t.Fatal(err)
	}
	warm := checkServed(t, "follower cold", f, ids...)

	if err := primary.AddAttribute(ids[0], "alice", oracleFrag(t, "added-on-primary")); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.IngestXML("bob", oracleDoc(9)); err != nil {
		t.Fatal(err)
	}
	if ok, err := primary.Delete(ids[2]); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	recs, _, gap, err := primary.WALSince(seq)
	if err != nil || gap {
		t.Fatalf("WALSince: gap=%v err=%v", gap, err)
	}
	if err := f.ApplyWAL(recs); err != nil {
		t.Fatal(err)
	}
	n := &respCounters{t: t, c: f, on: on}
	n.mark()
	got := checkServed(t, "follower after applying an AddAttribute", f, ids...)
	if got[ids[0]] == warm[ids[0]] || got[ids[1]] != warm[ids[1]] || len(got) != 2 {
		t.Fatal("the follower served the wrong documents after applying the primary's log")
	}
	n.expect("follower after applying an AddAttribute", 1, 2)
}

func oracleCluster(t *testing.T, opts catalog.Options) {
	cl, err := shard.Open(shard.Options{
		Schema:     xmlschema.MustLEAD(),
		Root:       "root",
		Shards:     4,
		Catalog:    opts,
		Durability: catalog.DurabilityOptions{FS: faultio.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	owner := func(i int) string { return fmt.Sprintf("tenant-%d", i%5) }
	var gids []int64
	ingest := func(i int) {
		t.Helper()
		gid, err := cl.IngestXML(owner(i), oracleDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
	}
	for i := 0; i < 12; i++ {
		ingest(i)
	}
	// check judges every shard's pinned view, then requires the routed
	// build to serve those same documents.
	check := func(what string) map[int64]string {
		t.Helper()
		want := map[int64]string{}
		err := cl.ForEachShard(func(idx int, c *catalog.Catalog) error {
			var locals []int64
			for _, gid := range gids {
				if s, local, err := cl.SplitID(gid); err == nil && s == idx {
					locals = append(locals, local)
				}
			}
			got, err := judge(c.PinResponses(), locals)
			if err != nil {
				return fmt.Errorf("shard %d: %w", idx, err)
			}
			for local, xml := range got {
				want[cl.GlobalID(idx, local)] = xml
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		routed, err := cl.BuildResponse(gids)
		if err != nil {
			t.Fatal(err)
		}
		if len(routed) != len(want) {
			t.Fatalf("%s: routed build served %d documents, the shards %d", what, len(routed), len(want))
		}
		for _, r := range routed {
			if want[r.ObjectID] != r.XML {
				t.Fatalf("%s: routed build of %d differs from its shard's", what, r.ObjectID)
			}
		}
		return want
	}
	addTo := func(gid int64, key string) int {
		t.Helper()
		idx, local, err := cl.SplitID(gid)
		if err != nil {
			t.Fatal(err)
		}
		err = cl.ForEachShard(func(i int, c *catalog.Catalog) error {
			if i != idx {
				return nil
			}
			return c.AddAttribute(local, "", oracleFrag(t, key))
		})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}

	warm := check("cold")
	moved := addTo(gids[0], "added-before-rebalance")
	if err := cl.Rebalance(moved, "root/moved"); err != nil {
		t.Fatal(err)
	}
	got := check("after a rebalance")
	if got[gids[0]] == warm[gids[0]] || !strings.Contains(got[gids[0]], "added-before-rebalance") {
		t.Fatal("the rebalanced shard lost an AddAttribute")
	}
	addTo(gids[0], "added-after-rebalance")
	if ok, err := cl.Delete(gids[1]); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	ingest(12)
	if got := check("writes after a rebalance"); !strings.Contains(got[gids[0]], "added-after-rebalance") || got[gids[1]] != "" {
		t.Fatal("writes after the rebalance are not served")
	}
}

// oracleConcurrent races writers (ingest, AddAttribute, delete,
// publish) against readers that pin a view and judge what they are
// served there; run it under -race.
func oracleConcurrent(t *testing.T, opts catalog.Options) {
	c, err := catalog.Open(xmlschema.MustLEAD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var maxID atomic.Int64
	var docs atomic.Int64
	ingest := func() error {
		i := int(docs.Add(1))
		id, err := c.IngestXML(fmt.Sprintf("owner-%d", i%3), oracleDoc(i))
		if err == nil {
			maxID.Store(max(maxID.Load(), id))
		}
		return err
	}
	for i := 0; i < 12; i++ {
		if err := ingest(); err != nil {
			t.Fatal(err)
		}
	}
	const writers, readers, writes = 2, 3, 40
	var wg sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < writes; i++ {
				id := 1 + rng.Int63n(maxID.Load())
				var err error
				switch op := rng.Intn(10); {
				case op < 3:
					err = ingest()
				case op < 7:
					frag, perr := xmldoc.ParseString(fmt.Sprintf("<theme><themekt>race</themekt><themekey>w%d-%d</themekey></theme>", seed, i))
					if perr != nil {
						err = perr
						break
					}
					// The object may have been deleted by the other writer.
					if aerr := c.AddAttribute(id, "", frag); aerr != nil && !strings.Contains(aerr.Error(), "no object") {
						err = aerr
					}
				case op < 8:
					_, err = c.Delete(id)
				default:
					if perr := c.SetPublished(id, rng.Intn(2) == 0); perr != nil && !strings.Contains(perr.Error(), "no object") {
						err = perr
					}
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", seed, i, err)
					return
				}
			}
		}(int64(w + 1))
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for !done.Load() {
				ids := make([]int64, 6)
				for i := range ids {
					ids[i] = 1 + rng.Int63n(maxID.Load()+1)
				}
				if _, err := judge(c.PinResponses(), ids); err != nil {
					errs <- fmt.Errorf("reader %d: %w", seed, err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	all := make([]int64, maxID.Load())
	for i := range all {
		all[i] = int64(i + 1)
	}
	checkServed(t, "after the race", c, all...)
}
