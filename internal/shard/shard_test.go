// Shard-vs-single equivalence oracle: the same corpus ingested into a
// plain catalog, a 1-shard cluster, and a 4-shard cluster must yield
// identical Figure-4 result sets (compared as sorted response-XML
// multisets — object IDs differ by topology, document content does
// not), identical fan-out merges, and exact paging: the concatenation
// of searchPage pages must equal the full result with no duplicate and
// no drop. Run under -race (see the Makefile shard target); the
// concurrent phase mixes readers and writers on the 4-shard cluster.
package shard_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

const equivOwners = 10

func equivOwner(i int) string { return fmt.Sprintf("user-%02d", i%equivOwners) }

// openCluster builds an n-shard cluster on a fresh MemFS, registers the
// workload definitions on every shard, and ingests the corpus with
// per-document owners.
func openCluster(t *testing.T, g *workload.Generator, n int, corpus []*workloadDoc) (*shard.Cluster, []int64) {
	t.Helper()
	return openClusterWith(t, g, n, corpus, catalog.Options{})
}

// openClusterWith is openCluster with per-shard catalog options.
func openClusterWith(t *testing.T, g *workload.Generator, n int, corpus []*workloadDoc, copts catalog.Options) (*shard.Cluster, []int64) {
	t.Helper()
	cl, err := shard.Open(shard.Options{
		Schema:  g.Schema,
		Root:    "cluster",
		Shards:  n,
		Catalog: copts,
		Durability: catalog.DurabilityOptions{
			FS: faultio.NewMemFS(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	if err := cl.ForEachShard(func(_ int, c *catalog.Catalog) error {
		return g.RegisterDefinitions(c)
	}); err != nil {
		t.Fatal(err)
	}
	gids := make([]int64, len(corpus))
	for i, d := range corpus {
		gid, err := cl.Ingest(d.owner, d.doc)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		gids[i] = gid
	}
	return cl, gids
}

type workloadDoc struct {
	owner string
	doc   *xmldoc.Node
}

// searchPage is the service's /search flow over a cluster: evaluate
// (routed, or fanned out), slice entries [offset, offset+limit) of the
// merged ascending global-ID order, build responses for the page only.
// limit <= 0 means no limit; the int is the full match count.
func searchPage(cl *shard.Cluster, q *catalog.Query, fanout bool, offset, limit int) ([]catalog.Response, int, error) {
	ids, err := cl.EvaluateContext(context.Background(), q, fanout)
	if err != nil {
		return nil, 0, err
	}
	total := len(ids)
	ids = ids[min(offset, total):]
	if limit > 0 && limit < len(ids) {
		ids = ids[:limit]
	}
	resp, err := cl.BuildResponse(ids)
	return resp, total, err
}

// search is searchPage over the whole routed result.
func search(cl *shard.Cluster, q *catalog.Query) ([]catalog.Response, error) {
	resp, _, err := searchPage(cl, q, false, 0, 0)
	return resp, err
}

func TestShardEquivalenceOracle(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 120
	g := workload.New(cfg)
	raw := g.Corpus()
	corpus := make([]*workloadDoc, len(raw))
	for i, d := range raw {
		corpus[i] = &workloadDoc{owner: equivOwner(i), doc: d}
	}

	// Plain single catalog, the oracle topology.
	single, err := catalog.Open(g.Schema, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterDefinitions(single); err != nil {
		t.Fatal(err)
	}
	singleIDs := make([]int64, len(raw))
	for i, d := range raw {
		id, err := single.Ingest(equivOwner(i), d)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		singleIDs[i] = id
	}

	one, _ := openCluster(t, g, 1, corpus)
	four, fourGids := openCluster(t, g, 4, corpus)
	if got := four.ObjectCount(); got != len(raw) {
		t.Fatalf("4-shard cluster holds %d objects, want %d", got, len(raw))
	}

	// The query mix: owner-scoped (routed on the clusters) and superuser
	// (fan-out) variants of point, range, nested, and multi queries.
	type tcase struct {
		name string
		q    *catalog.Query
	}
	var cases []tcase
	for i := 0; i < 40; i++ {
		var q *catalog.Query
		switch i % 4 {
		case 0:
			q = g.PointQuery(i, i, i)
		case 1:
			q = g.RangeQuery(i, i+1, 0.2+float64(i%4)*0.2)
		case 2:
			q = g.NestedQuery(i, i, 1+i%2)
		case 3:
			q = g.MultiQuery(i, 2+i%2)
		}
		q.Owner = equivOwner(i)
		cases = append(cases, tcase{fmt.Sprintf("owner-%d", i), q})
		admin := *q
		admin.Owner = ""
		cases = append(cases, tcase{fmt.Sprintf("admin-%d", i), &admin})
	}

	sortedXMLs := func(resp []catalog.Response) []string {
		out := make([]string, len(resp))
		for i, r := range resp {
			out[i] = r.XML
		}
		sort.Strings(out)
		return out
	}
	equal := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	nonEmpty := 0
	for _, tc := range cases {
		want, err := single.Search(tc.q)
		if err != nil {
			t.Fatalf("%s: single: %v", tc.name, err)
		}
		oneResp, err := search(one, tc.q)
		if err != nil {
			t.Fatalf("%s: 1-shard: %v", tc.name, err)
		}
		fourResp, err := search(four, tc.q)
		if err != nil {
			t.Fatalf("%s: 4-shard: %v", tc.name, err)
		}
		w := sortedXMLs(want)
		if !equal(w, sortedXMLs(oneResp)) {
			t.Errorf("%s: 1-shard diverges from single catalog (%d vs %d results)", tc.name, len(oneResp), len(want))
		}
		if !equal(w, sortedXMLs(fourResp)) {
			t.Errorf("%s: 4-shard diverges from single catalog (%d vs %d results)", tc.name, len(fourResp), len(want))
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(cases)/4 {
		t.Fatalf("only %d/%d queries matched anything — corpus too sparse to prove equivalence", nonEmpty, len(cases))
	}

	// Paging boundaries: concatenating pages of every size must equal
	// the full merged order exactly — no duplicate, no drop, stable
	// total — on both the routed and the fan-out path.
	pageQueries := []*catalog.Query{}
	{
		q := g.MultiQuery(3, 2)
		q.Owner = ""
		pageQueries = append(pageQueries, q)
		oq := g.PointQuery(2, 2, 2)
		oq.Owner = equivOwner(2)
		pageQueries = append(pageQueries, oq)
	}
	for qi, q := range pageQueries {
		full, total, err := searchPage(four, q, false, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if total != len(full) {
			t.Fatalf("page query %d: total %d != full %d", qi, total, len(full))
		}
		for _, size := range []int{1, 3, 7} {
			var paged []catalog.Response
			for off := 0; ; off += size {
				page, ptotal, err := searchPage(four, q, false, off, size)
				if err != nil {
					t.Fatal(err)
				}
				if ptotal != total {
					t.Fatalf("page query %d size %d offset %d: total drifted %d -> %d", qi, size, off, total, ptotal)
				}
				if len(page) == 0 {
					break
				}
				if len(page) > size {
					t.Fatalf("page query %d: page of %d exceeds limit %d", qi, len(page), size)
				}
				paged = append(paged, page...)
			}
			if len(paged) != len(full) {
				t.Fatalf("page query %d size %d: pages concatenate to %d results, want %d", qi, size, len(paged), len(full))
			}
			for i := range paged {
				if paged[i].ObjectID != full[i].ObjectID || paged[i].XML != full[i].XML {
					t.Fatalf("page query %d size %d: result %d diverges from the full order", qi, size, i)
				}
			}
		}
	}

	// Publish a slice of the corpus in every topology: the routed read
	// stays owner-local by design, so cross-owner published visibility
	// must come back through the fan-out read, which reproduces
	// single-catalog semantics exactly.
	for i := range raw {
		if i%7 != 0 {
			continue
		}
		if err := single.SetPublished(singleIDs[i], true); err != nil {
			t.Fatal(err)
		}
		if err := four.SetPublished(fourGids[i], true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		q := g.PointQuery(i, i, i)
		q.Owner = equivOwner(i + 3) // not the ingest owner for most docs
		want, err := single.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := searchPage(four, q, true, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(sortedXMLs(want), sortedXMLs(got)) {
			t.Errorf("published query %d: fan-out read diverges from single catalog (%d vs %d)", i, len(got), len(want))
		}
		// The routed read must return a subset of the fan-out read: the
		// owner's shard's view misses only published objects elsewhere.
		routed, err := search(four, q)
		if err != nil {
			t.Fatal(err)
		}
		gotSet := map[string]bool{}
		for _, x := range sortedXMLs(got) {
			gotSet[x] = true
		}
		for _, x := range sortedXMLs(routed) {
			if !gotSet[x] {
				t.Errorf("published query %d: routed result not in fan-out result", i)
			}
		}
	}
}

// TestShardConcurrentReadWrite exercises the router under -race:
// readers fan out and route while writers ingest into fresh owners, and
// every acknowledged ingest must be queryable afterwards.
func TestShardConcurrentReadWrite(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 60
	g := workload.New(cfg)
	corpus := g.Corpus()
	docs := make([]*workloadDoc, len(corpus))
	for i, d := range corpus {
		docs[i] = &workloadDoc{owner: equivOwner(i), doc: d}
	}
	cl, _ := openCluster(t, g, 4, docs)

	const writers, extra = 2, 15
	var wg sync.WaitGroup
	errCh := make(chan error, writers+4)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < extra; i++ {
				owner := fmt.Sprintf("writer-%d", w)
				if _, err := cl.Ingest(owner, g.Document(1000+w*extra+i)); err != nil {
					errCh <- fmt.Errorf("writer %d doc %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := g.PointQuery(i, i, i)
				if i%2 == 0 {
					q.Owner = equivOwner(i)
				}
				if _, err := cl.Evaluate(q); err != nil {
					errCh <- fmt.Errorf("reader %d query %d: %w", r, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got, want := cl.ObjectCount(), len(corpus)+writers*extra; got != want {
		t.Fatalf("object count %d after concurrent ingest, want %d", got, want)
	}
}

// TestShardIdentity covers the global-ID codec and the cluster-identity
// invariants: round-trip encode/decode, invalid IDs, and the refusal to
// reopen a cluster with a different shard count.
func TestShardIdentity(t *testing.T) {
	g := workload.New(workload.Default())
	mem := faultio.NewMemFS()
	opts := shard.Options{
		Schema:     g.Schema,
		Root:       "cluster",
		Shards:     3,
		Durability: catalog.DurabilityOptions{FS: mem},
	}
	cl, err := shard.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 1, 2} {
		for _, local := range []int64{1, 2, 1000} {
			gid := cl.GlobalID(idx, local)
			gotIdx, gotLocal, err := cl.SplitID(gid)
			if err != nil || gotIdx != idx || gotLocal != local {
				t.Fatalf("SplitID(GlobalID(%d,%d)) = (%d,%d,%v)", idx, local, gotIdx, gotLocal, err)
			}
		}
	}
	if _, _, err := cl.SplitID(0); err == nil {
		t.Fatal("SplitID(0) should fail: no shard assigns local ID 0")
	}
	for owner, n := map[string]int{}, 0; n < 50; n++ {
		o := fmt.Sprintf("o%d", n)
		idx := cl.ShardFor(o)
		if idx < 0 || idx >= 3 {
			t.Fatalf("ShardFor(%q) = %d out of range", o, idx)
		}
		if prev, ok := owner[o]; ok && prev != idx {
			t.Fatalf("ShardFor(%q) unstable", o)
		}
		owner[o] = idx
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the persisted count: fine. With a different count: the
	// gid encoding would be reinterpreted, so it must be refused.
	reopened, err := shard.Open(opts)
	if err != nil {
		t.Fatalf("reopen with matching count: %v", err)
	}
	_ = reopened.Close()
	bad := opts
	bad.Shards = 4
	if _, err := shard.Open(bad); err == nil {
		t.Fatal("reopening a 3-shard cluster with -shards 4 must fail")
	}
}
