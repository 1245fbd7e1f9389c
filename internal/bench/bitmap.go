package bench

import (
	"fmt"
	"sort"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// B1BitmapSetOps measures what the compressed-bitmap Figure-4 pipeline
// buys on multi-criterion queries whose individual criteria are wide
// (each matches a large slice of the corpus) so the per-query cost is
// dominated by combining big instance sets, not by finding them. Two
// otherwise-identical catalogs answer the same pooled-criteria query
// stream:
//
//   - bitmap: the shipped pipeline — criterion probes emit compressed
//     posting lists straight off the B-tree, predicates and the
//     cross-criteria stage combine them with word-at-a-time ANDs
//     ordered by ascending cardinality;
//   - rows: the oracle path (Options.DisableBitmaps) — instance rows
//     flow through volcano iterators and group-by counting maps.
//
// Cells cover cold (caches off: every query pays probe + set ops) and
// warm (caches on; each measured query is a fresh combination, so the
// evaluate layer misses: the bitmap path answers its criterion probes
// from the postings layer and what's timed is the set operations — the
// steady state of a busy catalog — while the row oracle has no
// per-criterion cache and re-probes). Every measured query is a
// distinct 3-criterion combination drawn from one shared criterion
// pool.
//
// Each catalog carries a private metrics registry; the per-path
// query_stage_nanos{stage=intersect} totals land in the notes — the
// same per-stage numbers /debug/tracez shows per query.
func B1BitmapSetOps(o Options) (*Table, error) {
	t := &Table{
		ID:      "B1",
		Title:   "bitmap posting lists: multi-criterion set ops vs row-at-a-time",
		Claim:   "replacing per-row map materialization between the Figure-4 stages with compressed bitmap ANDs makes wide multi-criterion queries >= 3x faster, most visibly once probes are cache-warm and set combination is the remaining cost",
		Columns: []string{"path", "cache", "queries", "p50", "p95", "qps"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(1000)
	g := workload.New(cfg)
	docs := g.Corpus()

	// The criterion pool — every entry deliberately wide (matches a
	// large fraction of the corpus) so the cross-criteria combination,
	// not the probe, dominates: range predicates at distinct thresholds
	// over every dynamic (group, param) pair, structural keyword
	// criteria, and the themekt/OpGe pair of the standard multi-criteria
	// mix. Reusing the workload builders keeps the criteria identical to
	// the other experiments' query shapes.
	var pool []*catalog.AttrCriteria
	for gi := 0; gi < cfg.DynamicAttrsPerDoc; gi++ {
		for pi := 0; pi < cfg.ParamsPerAttr; pi++ {
			// pi wraps at paramsPerLevel inside RangeQuery; the per-pi
			// threshold keeps the wrapped entries distinct criteria.
			frac := 0.4 + 0.1*float64(pi)
			pool = append(pool, g.RangeQuery(gi, pi, frac).Attrs[0])
		}
	}
	for i := 0; i < 4; i++ {
		pool = append(pool, g.ThemeQuery(i).Attrs[0])
	}
	pool = append(pool, g.MultiQuery(0, 2).Attrs...)
	pool = append(pool, g.MultiQuery(1, 2).Attrs[1:]...)

	// All distinct 3-criterion combinations, then a fixed-stride walk so
	// consecutive measured queries mix range, keyword, and OpGe criteria
	// instead of exhausting one region of the lexicographic order. Warm
	// cells consume fresh combinations per repetition so the whole-query
	// evaluate cache never answers; only the criterion probes are shared
	// with earlier queries.
	var allCombos []*catalog.Query
	for a := 0; a < len(pool); a++ {
		for b := a + 1; b < len(pool); b++ {
			for c := b + 1; c < len(pool); c++ {
				q := &catalog.Query{}
				q.Attrs = []*catalog.AttrCriteria{pool[a], pool[b], pool[c]}
				allCombos = append(allCombos, q)
			}
		}
	}
	const stride = 997 // prime, coprime with C(25,3); visits each combo once
	combos := make([]*catalog.Query, len(allCombos))
	for j := range allCombos {
		combos[j] = allCombos[(j*stride)%len(allCombos)]
	}

	reps, perRep := o.runs(), 12
	need := perRep + reps*perRep // cold reuses one block; warm burns a fresh block per rep

	type pathCell struct {
		label   string
		disable bool
	}
	paths := []pathCell{{"bitmap", false}, {"rows", true}}

	load := func(opts catalog.Options, reg *obs.Registry) (*catalog.Catalog, error) {
		opts.Metrics = reg
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

	// The workload's parameter values are linear in the document index
	// modulo ValueCardinality, so values across groups are perfectly
	// correlated and a handful of window intersections are genuinely
	// empty. Screen the combination stream down to non-empty queries on
	// the cache-disabled bitmap catalog (nothing is retained, so the
	// cold cell it is reused for stays cold).
	coldBMReg := obs.NewRegistry()
	coldBM, err := load(catalog.Options{CacheSize: -1}, coldBMReg)
	if err != nil {
		return nil, err
	}
	picked := make([]*catalog.Query, 0, need)
	for _, q := range combos {
		if len(picked) == need {
			break
		}
		ids, err := coldBM.Evaluate(q)
		if err != nil {
			return nil, err
		}
		if len(ids) > 0 {
			picked = append(picked, q)
		}
	}
	if len(picked) < need {
		return nil, fmt.Errorf("bench B1: only %d/%d combinations matched anything", len(picked), need)
	}
	combos = picked

	timeQueries := func(c *catalog.Catalog, qs []*catalog.Query) ([]time.Duration, error) {
		lats := make([]time.Duration, 0, len(qs))
		for _, q := range qs {
			start := time.Now()
			ids, err := c.Evaluate(q)
			if err != nil {
				return nil, err
			}
			lats = append(lats, time.Since(start))
			if len(ids) == 0 {
				return nil, fmt.Errorf("bench B1: wide query matched nothing — workload drifted")
			}
		}
		return lats, nil
	}

	stats := func(lats []time.Duration, wall time.Duration) (p50, p95 time.Duration, qps float64) {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		at := func(p float64) time.Duration {
			i := int(p * float64(len(lats)))
			if i >= len(lats) {
				i = len(lats) - 1
			}
			return lats[i]
		}
		return at(0.50), at(0.95), float64(len(lats)) / wall.Seconds()
	}

	p50s := map[string]time.Duration{}
	intersectNanos := map[string]float64{}

	for _, pc := range paths {
		// Cold: caches off, so every evaluation pays resolve, probe, and
		// set combination against the base tables.
		c := coldBM
		if pc.disable {
			var err error
			c, err = load(catalog.Options{DisableBitmaps: true, CacheSize: -1}, obs.NewRegistry())
			if err != nil {
				return nil, err
			}
		}
		var lats []time.Duration
		var wall time.Duration
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			l, err := timeQueries(c, combos[:perRep])
			if err != nil {
				return nil, err
			}
			wall += time.Since(start)
			lats = append(lats, l...)
		}
		p50, p95, qps := stats(lats, wall)
		t.AddRow(pc.label, "cold", len(lats), p50, p95, fmt.Sprintf("%.0f", qps))
		p50s[pc.label+"/cold"] = p50

		// Warm: pre-touch every pooled criterion once so the postings
		// layer is hot (the row oracle caches no probes), then time
		// never-before-seen combinations.
		regW := obs.NewRegistry()
		cw, err := load(catalog.Options{DisableBitmaps: pc.disable}, regW)
		if err != nil {
			return nil, err
		}
		for _, crit := range pool {
			wq := &catalog.Query{Attrs: []*catalog.AttrCriteria{crit}}
			if _, err := cw.Evaluate(wq); err != nil {
				return nil, err
			}
		}
		intersectBefore := regW.Histogram("query_stage_nanos", obs.L("stage", "intersect")).Sum()
		lats = lats[:0]
		wall = 0
		for rep := 0; rep < reps; rep++ {
			qs := combos[perRep+rep*perRep : perRep+(rep+1)*perRep]
			start := time.Now()
			l, err := timeQueries(cw, qs)
			if err != nil {
				return nil, err
			}
			wall += time.Since(start)
			lats = append(lats, l...)
		}
		intersectAfter := regW.Histogram("query_stage_nanos", obs.L("stage", "intersect")).Sum()
		p50, p95, qps = stats(lats, wall)
		t.AddRow(pc.label, "warm", len(lats), p50, p95, fmt.Sprintf("%.0f", qps))
		p50s[pc.label+"/warm"] = p50
		intersectNanos[pc.label] = float64(intersectAfter-intersectBefore) / float64(len(lats))
	}

	if rp := p50s["rows/warm"]; rp > 0 && p50s["bitmap/warm"] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"warm multi-criterion p50: bitmap %s vs rows %s = %.1fx speedup (target >= 3x): bitmap probes come from the postings layer, so set combination is its measured cost; the row oracle re-probes",
			fmtDuration(p50s["bitmap/warm"]), fmtDuration(rp),
			float64(rp)/float64(p50s["bitmap/warm"])))
	}
	if rp := p50s["rows/cold"]; rp > 0 && p50s["bitmap/cold"] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"cold p50: bitmap %s vs rows %s = %.1fx (both paths pay the B-tree probes; the bitmap path additionally skips the per-row group-by maps)",
			fmtDuration(p50s["bitmap/cold"]), fmtDuration(rp),
			float64(rp)/float64(p50s["bitmap/cold"])))
	}
	if intersectNanos["rows"] > 0 && intersectNanos["bitmap"] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"intersect stage (query_stage_nanos{stage=intersect}, warm, per query): bitmap %s vs rows %s = %.1fx smaller — the same per-stage spans /debug/tracez reports",
			fmtDuration(time.Duration(intersectNanos["bitmap"])),
			fmtDuration(time.Duration(intersectNanos["rows"])),
			intersectNanos["rows"]/intersectNanos["bitmap"]))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d docs, %d pooled criteria, %d screened non-empty 3-criterion combinations; every criterion is wide (range fracs 0.4-0.9, OpGe 0, keyword equality), so per-criterion posting lists hold hundreds-to-thousands of instances",
		len(docs), len(pool), len(combos)))
	return t, nil
}
