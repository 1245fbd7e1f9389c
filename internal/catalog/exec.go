package catalog

import (
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// Plan executor. execPlan walks a compiled plan (plan.go) through the
// Figure-4 stages — probe, containment rollup, cross-criteria intersect
// — and what flows between the stages is one sorted list of packed
// instance keys per criterion (keylist.go holds the set algebra).
// Probes are memoized in the postings cache layer. A key that cannot be
// packed fails the query; the shredder refuses the documents that would
// produce one (core's per-definition ordinal bound).

// execPlan compiles the query and executes the plan tree, annotating
// every plan node with its cardinality and cache outcome as
// it goes. It returns the visible matching object IDs ascending
// together with the annotated plan for ExplainQuery.
func (v *view) execPlan(q *Query, tr *obs.Trace) ([]int64, *queryPlan, error) {
	c := v.c
	if err := v.ctxErr(); err != nil {
		return nil, nil, err
	}

	// Stage 1+2: compile, then per criteria node the instances directly
	// satisfying its element predicates.
	endProbe := c.stageTimer(tr, "probe", c.obsv.stageProbe)
	p, err := v.compile(q)
	if err != nil {
		return nil, nil, err
	}
	sets, err := v.probeStage(p)
	if err != nil {
		return nil, nil, err
	}
	endProbe(int64(len(p.all)))
	if err := v.ctxErr(); err != nil {
		return nil, nil, err
	}

	// Stage 3: containment rollup, children before parents (p.rollups is
	// in reverse-DFS order).
	endRollup := c.stageTimer(tr, "rollup", c.obsv.stageRollup)
	for _, rn := range p.rollups {
		rn.beforeCard = len(sets[rn.q.id])
		narrowed, err := v.rollupSet(rn.q, sets)
		if err != nil {
			return nil, nil, err
		}
		sets[rn.q.id] = narrowed
		rn.card = len(narrowed)
	}
	endRollup(int64(len(p.rollups)))
	if err := v.ctxErr(); err != nil {
		return nil, nil, err
	}

	// Stage 4: objects containing a satisfying instance of every
	// top-level criterion, restricted to what the owner may see.
	endIntersect := c.stageTimer(tr, "intersect", c.obsv.stageIntersect)
	visible, err := v.intersect(q, p, sets)
	if err != nil {
		return nil, nil, err
	}
	p.root.card = len(visible)
	endIntersect(int64(len(visible)))
	return visible, p, nil
}

// probeStage runs every scan node in criteria order, recording each
// criterion's cardinality.
func (v *view) probeStage(p *queryPlan) (map[int][]uint64, error) {
	c := v.c
	sets := make(map[int][]uint64, len(p.all))
	for i, n := range p.all {
		sc := p.scans[i]
		s, hit, err := v.probe(sc)
		if err != nil {
			return nil, err
		}
		sets[n.id] = s
		sc.card = len(s)
		sc.cacheHit = hit
		c.obsv.criterionRows.Observe(int64(len(s)))
	}
	return sets, nil
}

// probe answers the scan node from the postings cache layer when
// enabled (keyed by the criterion's probeKey, stamped with the pinned
// epoch; cached sets are shared read-only), computing via scanSet on a
// miss. It reports whether the cache answered.
func (v *view) probe(sc *planNode) ([]uint64, bool, error) {
	if v.c.caches.postings == nil {
		s, err := v.scanSet(sc)
		return s, false, err
	}
	hit := true
	s, err := v.c.caches.postings.GetOrCompute(v.snap.Epoch(), sc.q.probeKey, func() ([]uint64, error) {
		hit = false
		return v.scanSet(sc)
	})
	return s, hit, err
}

// intersect projects each top-level criterion's instance list onto
// objects, then merges them from the shortest up, recording each
// candidate list's cardinality on the plan; unless the querying user is
// the superuser, a non-empty result is finally ANDed with the objects
// the owner may see.
func (v *view) intersect(q *Query, p *queryPlan, sets map[int][]uint64) ([]int64, error) {
	c := v.c
	objSets := make([][]uint64, len(p.tops))
	for i, top := range p.tops {
		os := objectSet(sets[top.id])
		c.obsv.intersectCardinality.Observe(int64(len(os)))
		p.topObjs = append(p.topObjs, topObjects{id: top.id, card: len(os)})
		objSets[i] = os
	}
	result := andAscending(objSets)
	if len(result) > 0 && q.Owner != "" {
		visible, err := v.visibleSet(q.Owner)
		if err != nil {
			return nil, err
		}
		result = and(result, visible)
	}
	ids := make([]int64, len(result))
	for i, k := range result {
		ids[i] = int64(k)
	}
	return ids, nil
}

// scanSet executes one scan node as a posting list: each child probe's
// specs stream instance keys off the B-tree into a key list, and the
// per-predicate lists AND shortest-first (an instance satisfies the
// criterion when it satisfies every predicate).
func (v *view) scanSet(sc *planNode) ([]uint64, error) {
	n := sc.q
	if len(n.elems) == 0 {
		// scan-all: every instance of the definition, off the
		// (attr_id, object_id, seq_id) keys.
		def := relstore.Int(n.def.ID)
		return instanceKeys(v.tab(TAttrData), []probeSpec{{index: "attr_data_by_attr", lo: incl(def), hi: incl(def)}})
	}
	sets := make([][]uint64, len(sc.children))
	for k, pc := range sc.children {
		s, err := instanceKeys(v.tab(TElemData), pc.probe.specs)
		if err != nil {
			return nil, err
		}
		sets[k] = s
	}
	return andAscending(sets), nil
}

// instanceKeys unions the instance keys of every index entry in the
// specs' ranges. Each index probed ends in (object_id, seq_id), so the
// keys are decoded from the index entries and no row is read; an
// or-union or an Ne probe is simply several ranges.
func instanceKeys(t *relstore.Table, specs []probeSpec) ([]uint64, error) {
	var out []uint64
	var err error
	add := func(tail []int64) bool {
		var k uint64
		if k, err = instKey(tail[0], tail[1]); err != nil {
			return false
		}
		out = append(out, k)
		return true
	}
	for _, spec := range specs {
		if lerr := t.LookupRangeTails(spec.index, spec.lo, spec.hi, 2, add); lerr != nil {
			return nil, lerr
		}
		if err != nil {
			return nil, err
		}
	}
	return sortedKeys(out), nil
}
