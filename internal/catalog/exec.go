package catalog

import (
	"fmt"
	"slices"

	"github.com/gridmeta/hybridcat/internal/bitset"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// Plan executor. execPlan walks a compiled plan (plan.go) through the
// Figure-4 stages — probe, containment rollup, cross-criteria intersect
// — under one of two materialization strategies: compressed bitmap
// posting lists (the default) or row slices (the oracle behind
// Options.DisableBitmaps, and the per-evaluation fallback when instance
// keys overflow the bitmap packing). The stage names, histograms, trace
// spans are identical under both strategies; only what flows between
// the stages differs, and only the bitmap strategy's probes are cached
// (the postings layer).

// instSet is a criterion's satisfied-instance collection under some
// materialization; the executor and explain renderer see cardinality
// and physical shape, the owning strategy sees through to the data.
type instSet interface {
	card() int
	shape() string // e.g. "[set: card=…]"; "" for rows
}

// setInst materializes instances as a compressed bitset of packed
// (object, seq) keys.
type setInst struct{ s *bitset.Set }

func (x setInst) card() int     { return x.s.Card() }
func (x setInst) shape() string { return fmt.Sprintf("[set: %s]", x.s.Stats()) }

// rowsInst materializes instances as [object_id, seq_id] rows.
type rowsInst struct{ rows []relstore.Row }

func (x rowsInst) card() int     { return len(x.rows) }
func (x rowsInst) shape() string { return "" }

// execStrategy is one physical materialization of the plan operators.
// probe runs one criterion's scan node (reporting whether a cache layer
// answered it), rollup one containment-rollup node, and intersect the
// final cross-criteria object AND plus visibility.
type execStrategy interface {
	name() string
	probe(v *view, sc *planNode) (instSet, bool, error)
	rollup(v *view, rn *planNode, sets map[int]instSet) (instSet, error)
	intersect(v *view, q *Query, p *queryPlan, sets map[int]instSet) ([]int64, error)
}

// execPlan compiles the query and executes the plan tree under the
// strategy, annotating every plan node with its cardinality, shape, and
// cache outcome as it goes. It returns the visible matching object IDs
// ascending (row strategy: sorted; set strategy: set iteration order)
// together with the annotated plan for ExplainQuery.
func (v *view) execPlan(q *Query, tr *obs.Trace, st execStrategy) ([]int64, *queryPlan, error) {
	c := v.c
	tr.Annotate("repr=" + st.name())
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
	sets, err := v.probeStage(p, st)
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
		rn.beforeCard = sets[rn.q.id].card()
		narrowed, err := st.rollup(v, rn, sets)
		if err != nil {
			return nil, nil, err
		}
		sets[rn.q.id] = narrowed
		rn.card = narrowed.card()
		rn.shape = narrowed.shape()
	}
	endRollup(int64(len(p.rollups)))
	if err := v.ctxErr(); err != nil {
		return nil, nil, err
	}

	// Stage 4: objects containing a satisfying instance of every
	// top-level criterion, restricted to what the owner may see.
	endIntersect := c.stageTimer(tr, "intersect", c.obsv.stageIntersect)
	visible, err := st.intersect(v, q, p, sets)
	if err != nil {
		return nil, nil, err
	}
	p.root.card = len(visible)
	endIntersect(int64(len(visible)))
	return visible, p, nil
}

// probeStage runs every scan node in criteria order. This is the one
// home of the per-criterion instrumentation (cardinality, bitmap
// container census) that the row and bitmap pipelines used to
// duplicate.
func (v *view) probeStage(p *queryPlan, st execStrategy) (map[int]instSet, error) {
	c := v.c
	sets := make(map[int]instSet, len(p.all))
	for i, n := range p.all {
		sc := p.scans[i]
		s, hit, err := st.probe(v, sc)
		if err != nil {
			return nil, err
		}
		sets[n.id] = s
		sc.card = s.card()
		sc.shape = s.shape()
		sc.cacheHit = hit
		c.obsv.criterionRows.Observe(int64(s.card()))
		if si, ok := s.(setInst); ok {
			cs := si.s.Stats()
			c.obsv.bitmapContainersArray.Add(uint64(cs.Array))
			c.obsv.bitmapContainersBitmap.Add(uint64(cs.Bitmap))
			c.obsv.bitmapContainersRun.Add(uint64(cs.Run))
		}
	}
	return sets, nil
}

// setStrategy executes the plan on compressed bitmaps of packed
// instance keys (bitmap.go holds the set algebra).
type setStrategy struct{}

func (setStrategy) name() string { return "bitmap" }

// probe answers the scan node from the postings cache layer when
// enabled (keyed by the criterion's probeKey, stamped with the pinned
// epoch; cached sets are shared read-only), computing via scanSet on a
// miss.
func (setStrategy) probe(v *view, sc *planNode) (instSet, bool, error) {
	if v.c.caches.postings == nil {
		s, err := v.scanSet(sc)
		if err != nil {
			return nil, false, err
		}
		return setInst{s}, false, nil
	}
	hit := true
	s, err := v.c.caches.postings.GetOrCompute(v.snap.Epoch(), sc.q.probeKey, func() (*bitset.Set, error) {
		hit = false
		return v.scanSet(sc)
	})
	if err != nil {
		return nil, false, err
	}
	return setInst{s}, hit, nil
}

func (setStrategy) rollup(v *view, rn *planNode, sets map[int]instSet) (instSet, error) {
	n := rn.q
	m := make(map[int]*bitset.Set, len(n.children)+1)
	m[n.id] = sets[n.id].(setInst).s
	for _, child := range n.children {
		m[child.id] = sets[child.id].(setInst).s
	}
	s, err := v.rollupSet(n, m)
	if err != nil {
		return nil, err
	}
	return setInst{s}, nil
}

// intersect projects each top-level criterion's instance set onto
// objects, then chains bitmap ANDs from the smallest set up, recording
// each candidate set's cardinality and shape on the plan.
func (setStrategy) intersect(v *view, q *Query, p *queryPlan, sets map[int]instSet) ([]int64, error) {
	c := v.c
	objSets := make([]*bitset.Set, len(p.tops))
	for i, top := range p.tops {
		os := objectSet(sets[top.id].(setInst).s)
		c.obsv.intersectCardinality.Observe(int64(os.Card()))
		p.topObjs = append(p.topObjs, topObjects{
			id: top.id, card: os.Card(), shape: fmt.Sprintf("[set: %s]", os.Stats()),
		})
		objSets[i] = os
	}
	result := andAscending(objSets)
	ids := make([]int64, 0, result.Card())
	result.Iterate(func(k uint64) bool {
		ids = append(ids, int64(k))
		return true
	})
	return v.filterVisible(q.Owner, ids), nil
}

// rowStrategy executes the plan on materialized [object_id, seq_id]
// row slices through volcano iterators and group-by maps — the original
// row-at-a-time pipeline, kept as the correctness oracle.
type rowStrategy struct{}

func (rowStrategy) name() string { return "rows" }

// probe runs the scan node via scanRows, uncached: the oracle recomputes
// every criterion from the base tables.
func (rowStrategy) probe(v *view, sc *planNode) (instSet, bool, error) {
	rows, err := v.scanRows(sc)
	if err != nil {
		return nil, false, err
	}
	return rowsInst{rows}, false, nil
}

func (rowStrategy) rollup(v *view, rn *planNode, sets map[int]instSet) (instSet, error) {
	n := rn.q
	iters := make(map[int]relstore.Iterator, len(n.children)+1)
	iters[n.id] = relstore.NewSliceIter(satisfiedCols, sets[n.id].(rowsInst).rows)
	for _, child := range n.children {
		iters[child.id] = relstore.NewSliceIter(satisfiedCols, sets[child.id].(rowsInst).rows)
	}
	it, err := v.containmentRollup(n, iters)
	if err != nil {
		return nil, err
	}
	return rowsInst{relstore.Collect(it)}, nil
}

// intersect tags each top-level criterion's rows, group-by counts
// distinct criteria per object, and keeps objects covering all of them.
func (rowStrategy) intersect(v *view, q *Query, p *queryPlan, sets map[int]instSet) ([]int64, error) {
	var tagged []relstore.Iterator
	for _, top := range p.tops {
		it := relstore.NewSliceIter(satisfiedCols, sets[top.id].(rowsInst).rows)
		tagged = append(tagged, relstore.Project(
			tagIter(it, int64(top.id)),
			[]int{0, 2}, []string{"object_id", "q_id"},
		))
	}
	counts := relstore.GroupBy(relstore.Union(tagged...), []int{0}, []relstore.AggSpec{
		{Func: relstore.AggCountDistinct, Col: 1, Name: "n_tops"},
	})
	need := int64(len(p.tops))
	hits := relstore.Filter(counts, func(r relstore.Row) bool { return r[1].I == need })

	var ids []int64
	for {
		r, ok := hits.Next()
		if !ok {
			break
		}
		ids = append(ids, r[0].I)
	}
	slices.Sort(ids)
	return v.filterVisible(q.Owner, ids), nil
}

// scanSet executes one scan node as a posting list: each child probe's
// specs stream row IDs off the B-tree into a bitset, convert to packed
// instance keys, and the per-predicate sets AND smallest-first (the set
// form of the row path's count-distinct check).
func (v *view) scanSet(sc *planNode) (*bitset.Set, error) {
	n := sc.q
	if len(n.elems) == 0 {
		// scan-all: every instance of the definition.
		attrT := v.tab(TAttrData)
		rowSet := bitset.New()
		if err := attrT.LookupEqualPostings("attr_data_by_attr", rowSet, relstore.Int(n.def.ID)); err != nil {
			return nil, err
		}
		return v.instanceSet(attrT, rowSet, nil)
	}
	sets := make([]*bitset.Set, len(sc.children))
	for k, pc := range sc.children {
		s, err := v.probeSet(pc.probe)
		if err != nil {
			return nil, err
		}
		sets[k] = s
	}
	return andAscending(sets), nil
}

// probeSet executes one compiled probe as an instance-key set. An
// or-union streams every member spec into one row-ID set before a
// single row→instance conversion (members are equality probes, so
// there is never a post-filter to thread through the union).
func (v *view) probeSet(pp *probePlan) (*bitset.Set, error) {
	elemT := v.tab(TElemData)
	rowSet := bitset.New()
	if pp.op == opOrUnion {
		for _, spec := range pp.specs {
			if err := emitSpec(elemT, spec, rowSet); err != nil {
				return nil, err
			}
		}
		return v.instanceSet(elemT, rowSet, nil)
	}
	if len(pp.specs) == 0 {
		return bitset.New(), nil
	}
	spec := pp.specs[0]
	if err := emitSpec(elemT, spec, rowSet); err != nil {
		return nil, err
	}
	return v.instanceSet(elemT, rowSet, spec.post)
}

// emitSpec streams one spec's matching row IDs into dst.
func emitSpec(t *relstore.Table, spec probeSpec, dst *bitset.Set) error {
	if spec.ranged {
		return t.LookupRangePostings(spec.index, dst, spec.lo, spec.hi)
	}
	return t.LookupEqualPostings(spec.index, dst, spec.eq...)
}

// scanRows executes one scan node as materialized rows: one probe per
// element predicate, tagged with its criterion index; instances
// satisfying all predicates have a full distinct count (the paper's
// required-element-count check).
func (v *view) scanRows(sc *planNode) ([]relstore.Row, error) {
	n := sc.q
	if len(n.elems) == 0 {
		attrT := v.tab(TAttrData)
		ids, err := attrT.LookupEqual("attr_data_by_attr", relstore.Int(n.def.ID))
		if err != nil {
			return nil, err
		}
		it := relstore.Project(relstore.ScanRowIDs(attrT, ids), []int{0, 2}, satisfiedCols)
		return relstore.Collect(it), nil
	}
	var parts []relstore.Iterator
	for k, pc := range sc.children {
		probe, err := v.probeRows(pc.probe)
		if err != nil {
			return nil, err
		}
		parts = append(parts, tagIter(probe, int64(k)))
	}
	counted := relstore.GroupBy(relstore.Union(parts...), []int{0, 1}, []relstore.AggSpec{
		{Func: relstore.AggCountDistinct, Col: 2, Name: "n_elems"},
	})
	need := int64(len(n.elems))
	ok := relstore.Filter(counted, func(r relstore.Row) bool { return r[2].I == need })
	return relstore.Collect(relstore.Project(ok, []int{0, 1}, satisfiedCols)), nil
}

// probeRows executes one compiled probe as a row iterator. An or-union
// unions its member probes and deduplicates.
func (v *view) probeRows(pp *probePlan) (relstore.Iterator, error) {
	elemT := v.tab(TElemData)
	if pp.op == opOrUnion {
		var parts []relstore.Iterator
		for _, spec := range pp.specs {
			it, err := specRows(elemT, spec)
			if err != nil {
				return nil, err
			}
			parts = append(parts, it)
		}
		return relstore.Distinct(relstore.Union(parts...)), nil
	}
	if len(pp.specs) == 0 {
		return relstore.NewSliceIter(satisfiedCols, nil), nil
	}
	return specRows(elemT, pp.specs[0])
}

// specRows executes one spec via the slice-form lookups, applying the
// residual filter, projected to [object_id, seq_id].
func specRows(t *relstore.Table, spec probeSpec) (relstore.Iterator, error) {
	var ids []int64
	var err error
	if spec.ranged {
		ids, err = t.LookupRange(spec.index, spec.lo, spec.hi)
	} else {
		ids, err = t.LookupEqual(spec.index, spec.eq...)
	}
	if err != nil {
		return nil, err
	}
	it := relstore.ScanRowIDs(t, ids)
	if spec.post != nil {
		it = relstore.Filter(it, spec.post)
	}
	return relstore.Project(it, []int{0, 2}, satisfiedCols), nil
}
