package bench

import (
	"fmt"
	"slices"
	"time"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// C2CacheEffect measures the generation-stamped read caches across three
// workloads:
//
//   - cold: one pass over distinct queries against fresh stores — the
//     caches are empty, so this bounds the caching overhead on misses,
//   - warm: repeated passes over the same query mix — the cached store
//     answers from the evaluate layer while the uncached store re-runs
//     the full Figure-4 pipeline every time,
//   - mutating: the same stream with an ingest every few queries — every
//     mutation bumps the generation, so the cached store keeps
//     re-deriving current results instead of serving stale ones.
//
// An untimed oracle pass runs the mutating stream in lockstep on a
// cached and an uncached catalog and requires identical IDs and fetched
// XML at every step: the cache may only ever change latency, never
// results. The CLOB-only baseline anchors the absolute numbers.
func C2CacheEffect(o Options) (*Table, error) {
	t := &Table{
		ID:      "C2",
		Title:   "read caching: cold vs warm vs mutating workloads",
		Claim:   "generation-stamped caching turns repeated warm queries into O(1) lookups, while mutations invalidate with a single counter bump and never serve stale results",
		Columns: []string{"workload", "store", "ops", "wall", "per-op", "speedup"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(300)
	g := workload.New(cfg)
	docs := g.Corpus()

	// The same pipeline-covering query mix as C1.
	var queries []*catalog.Query
	for i := 0; i < 32; i++ {
		switch i % 5 {
		case 0:
			queries = append(queries, g.PointQuery(i, i, i))
		case 1:
			queries = append(queries, g.RangeQuery(i, i+1, 0.4))
		case 2:
			queries = append(queries, g.NestedQuery(i, i, 1+i%2))
		case 3:
			queries = append(queries, g.ThemeQuery(i))
		case 4:
			queries = append(queries, g.MultiQuery(i, 2))
		}
	}

	openHybrid := func(opts catalog.Options) (*catalog.Catalog, error) {
		c, err := catalog.Open(g.Schema, opts)
		if err != nil {
			return nil, err
		}
		if err := g.RegisterDefinitions(c); err != nil {
			return nil, err
		}
		for _, d := range docs {
			if _, err := c.Ingest("bench", d); err != nil {
				return nil, err
			}
		}
		return c, nil
	}

	cachedCat, err := openHybrid(catalog.Options{})
	if err != nil {
		return nil, err
	}
	uncachedCat, err := openHybrid(catalog.Options{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	clob, _, err := loadStore(KindClob, g, docs, o)
	if err != nil {
		return nil, err
	}
	stores := []struct {
		label string
		st    baseline.Store
	}{
		{"hybrid+cache", baseline.Adapter{C: cachedCat}},
		{"hybrid", baseline.Adapter{C: uncachedCat}},
		{"clob", clob},
	}

	evalN := func(st baseline.Store, n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := st.Evaluate(queries[i%len(queries)]); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	addRows := func(wl string, ops int, walls []time.Duration) {
		base := walls[1] // hybrid without cache is the speedup baseline
		for i, s := range stores {
			perOp := walls[i] / time.Duration(ops)
			t.AddRow(wl, s.label, ops, walls[i], perOp, ratio(int64(base), int64(walls[i])))
		}
	}

	// Cold: one pass over the distinct queries, caches empty.
	cold := make([]time.Duration, len(stores))
	for i, s := range stores {
		if cold[i], err = evalN(s.st, len(queries)); err != nil {
			return nil, err
		}
	}
	addRows("cold", len(queries), cold)

	// Warm: the caches now hold every query in the mix.
	warmOps := o.scale(400)
	warm := make([]time.Duration, len(stores))
	for i, s := range stores {
		if warm[i], err = evalN(s.st, warmOps); err != nil {
			return nil, err
		}
	}
	addRows("warm", warmOps, warm)

	// Warm response builds: repeatedly fetch the documents of one result
	// set; the cached store serves the §5 reconstruction per object from
	// the response layer.
	fetchIDs, err := stores[0].st.Evaluate(queries[3]) // a theme query with matches
	if err != nil {
		return nil, err
	}
	fetchOps := o.scale(200)
	warmFetch := make([]time.Duration, len(stores))
	for i, s := range stores {
		start := time.Now()
		for n := 0; n < fetchOps; n++ {
			if _, err := s.st.Fetch(fetchIDs); err != nil {
				return nil, err
			}
		}
		warmFetch[i] = time.Since(start)
	}
	addRows("warm-fetch", fetchOps, warmFetch)

	// Mutating: one ingest per mutateEvery queries. The generation bump
	// invalidates every layer, so the cached store's advantage shrinks to
	// what repeats between mutations.
	const mutateEvery = 8
	mutOps := o.scale(400)
	mut := make([]time.Duration, len(stores))
	for i, s := range stores {
		docSeq := cfg.Docs + i*mutOps // distinct fresh docs per store
		start := time.Now()
		for n := 0; n < mutOps; n++ {
			if n%mutateEvery == mutateEvery-1 {
				if _, err := s.st.Ingest("bench", g.Document(docSeq)); err != nil {
					return nil, err
				}
				docSeq++
			}
			if _, err := s.st.Evaluate(queries[n%len(queries)]); err != nil {
				return nil, err
			}
		}
		mut[i] = time.Since(start)
	}
	addRows("mutating", mutOps, mut)

	// Oracle: fresh cached and uncached catalogs run the mutating stream
	// in lockstep; IDs and rebuilt XML must agree at every step.
	oc, err := openHybrid(catalog.Options{})
	if err != nil {
		return nil, err
	}
	ou, err := openHybrid(catalog.Options{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	oracleOps := o.scale(200)
	docSeq := 10 * cfg.Docs
	for n := 0; n < oracleOps; n++ {
		if n%mutateEvery == mutateEvery-1 {
			d := g.Document(docSeq)
			docSeq++
			if _, err := oc.Ingest("bench", d); err != nil {
				return nil, err
			}
			if _, err := ou.Ingest("bench", d); err != nil {
				return nil, err
			}
		}
		q := queries[n%len(queries)]
		got, err := oc.Evaluate(q)
		if err != nil {
			return nil, err
		}
		want, err := ou.Evaluate(q)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(got, want) {
			return nil, fmt.Errorf("bench C2: stale cached result at step %d: %v != %v", n, got, want)
		}
		if n%16 == 0 && len(want) > 0 {
			gr, err := oc.BuildResponse(want[:1])
			if err != nil {
				return nil, err
			}
			wr, err := ou.BuildResponse(want[:1])
			if err != nil {
				return nil, err
			}
			if len(gr) != len(wr) || (len(gr) == 1 && gr[0].XML != wr[0].XML) {
				return nil, fmt.Errorf("bench C2: stale cached response at step %d", n)
			}
		}
	}

	st := cachedCat.CacheStats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("oracle: %d lockstep steps with interleaved ingests, cached and uncached results identical throughout", oracleOps),
		fmt.Sprintf("cached store counters: evaluate %d hits/%d misses/%d stale, response %d hits, %d singleflight collapses",
			st.Evaluate.Hits, st.Evaluate.Misses, st.Evaluate.Stale, st.Response.Hits,
			st.Evaluate.Collapses+st.Postings.Collapses),
		"expected shape: warm hybrid+cache is several times faster than uncached hybrid; mutating narrows the gap; cold is a wash")
	return t, nil
}
