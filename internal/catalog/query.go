package catalog

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// ErrUnknownDefinition is wrapped by query resolution failures: a
// criterion names an attribute or element with no catalog definition.
var ErrUnknownDefinition = errors.New("catalog: unknown definition")

// ElemPred is one element criterion inside an attribute criterion: the
// element's (name, source) identity, a comparison operator, and the value.
// Numeric values compare against the typed nval column; strings against
// sval.
//
// OneOf, when non-empty, replaces Value for equality predicates: the
// element satisfies the criterion when it equals any listed value. This
// is the hook the paper's §3 mentions for connecting definitions "to an
// ontology for enhanced search" — ontology expansion rewrites an equality
// on a broad term into OneOf over its narrower terms (see the ontology
// package).
type ElemPred struct {
	Name   string
	Source string
	Op     relstore.CmpOp
	Value  relstore.Value
	OneOf  []relstore.Value
}

// AttrCriteria is one node of the unordered attribute-criteria tree (§4):
// an attribute identity, required element predicates, and required
// sub-attribute criteria. A criteria node matches an attribute instance
// that satisfies every element predicate and contains (at any depth, via
// the inverted list) a satisfying instance of every sub-criterion.
type AttrCriteria struct {
	Name   string
	Source string
	Elems  []ElemPred
	Subs   []*AttrCriteria
}

// AddElem appends an element predicate and returns the criteria node for
// chaining; it mirrors the myLEAD Java API's MyAttr.addElement.
func (a *AttrCriteria) AddElem(name, source string, op relstore.CmpOp, value relstore.Value) *AttrCriteria {
	a.Elems = append(a.Elems, ElemPred{Name: name, Source: source, Op: op, Value: value})
	return a
}

// AddSub appends a sub-attribute criterion (MyAttr.addAttribute).
func (a *AttrCriteria) AddSub(sub *AttrCriteria) *AttrCriteria {
	a.Subs = append(a.Subs, sub)
	return a
}

// Query is an unordered query over metadata attributes (§4): an object
// matches when it contains a satisfying instance of every top-level
// criterion. Owner scopes resolution to the user's private definitions
// and restricts results to objects the user may see — their own plus
// published ones (§1's privacy requirement). The empty Owner is the
// catalog-internal superuser and sees everything.
type Query struct {
	Owner string
	Attrs []*AttrCriteria
	// Rank, when non-nil, turns the query into ranked retrieval: BM25
	// top-k over the text index, composed with the structural criteria
	// (rank.go). Ranked queries go through EvaluateRanked; Evaluate
	// rejects them so a caller can never silently drop the ranking.
	Rank *RankSpec
}

// Attr creates a top-level criterion and adds it to the query.
func (q *Query) Attr(name, source string) *AttrCriteria {
	a := &AttrCriteria{Name: name, Source: source}
	q.Attrs = append(q.Attrs, a)
	return a
}

// qNode is one resolved criteria node, numbered in DFS order.
type qNode struct {
	id       int
	parent   *qNode
	def      *core.AttrDef
	elems    []qElem
	children []*qNode
	// probeKey identifies the node's directly-satisfied instance set in
	// the postings cache layer: definition IDs plus predicates (cache.go).
	probeKey string
}

type qElem struct {
	def  *core.ElemDef
	pred ElemPred
}

// resolve shreds the query into numbered nodes (the paper's "queries are
// first shredded" step), resolving every identity against the view's
// pinned registry.
func (v *view) resolve(q *Query) ([]*qNode, []*qNode, error) {
	var all, tops []*qNode
	var build func(crit *AttrCriteria, parent *qNode) (*qNode, error)
	build = func(crit *AttrCriteria, parent *qNode) (*qNode, error) {
		parentID := int64(0)
		if parent != nil {
			parentID = parent.def.ID
		}
		def := v.reg.LookupAttr(crit.Name, crit.Source, parentID, q.Owner)
		if def == nil {
			return nil, fmt.Errorf("%w: attribute %q (source %q)", ErrUnknownDefinition, crit.Name, crit.Source)
		}
		if !def.Queryable {
			return nil, fmt.Errorf("catalog: attribute %q (source %q) is not queryable", crit.Name, crit.Source)
		}
		n := &qNode{id: len(all) + 1, parent: parent, def: def}
		all = append(all, n)
		for _, ep := range crit.Elems {
			edef := v.reg.LookupElem(ep.Name, ep.Source, def.ID, q.Owner)
			if edef == nil {
				return nil, fmt.Errorf("%w: element %q (source %q) in attribute %q", ErrUnknownDefinition, ep.Name, ep.Source, crit.Name)
			}
			n.elems = append(n.elems, qElem{def: edef, pred: ep})
		}
		for _, sub := range crit.Subs {
			child, err := build(sub, n)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
		}
		n.probeKey = probeKeyOf(n)
		return n, nil
	}
	for _, crit := range q.Attrs {
		top, err := build(crit, nil)
		if err != nil {
			return nil, nil, err
		}
		tops = append(tops, top)
	}
	return all, tops, nil
}

// Evaluate runs the Figure-4 pipeline and returns the matching object
// IDs, ascending. Each evaluation pins a snapshot at its start and runs
// lock-free against it, so any number of them run concurrently — with
// each other and with writers.
func (c *Catalog) Evaluate(q *Query) ([]int64, error) {
	return c.EvaluateContext(context.Background(), q)
}

// EvaluateContext is Evaluate honoring ctx: cancellation is checked
// between pipeline stages (probe, rollup, intersect), so an abandoned
// HTTP request stops before running the stages it no longer needs. A
// cancelled evaluation returns the context's error.
func (c *Catalog) EvaluateContext(ctx context.Context, q *Query) ([]int64, error) {
	tr, done := c.beginOp("evaluate", c.obsv.opEvaluate)
	defer done()
	return c.pinViewCtx(ctx).evaluateTraced(q, tr)
}

// evaluateTraced answers the query through the evaluate cache layer,
// stamping tr (which may be nil) along the way. A hit skips the whole
// pipeline; concurrent misses for the same key at the same pinned epoch
// collapse onto one computation (singleflight). The cached slice is
// cloned on every hit so callers may mutate their result freely.
func (v *view) evaluateTraced(q *Query, tr *obs.Trace) ([]int64, error) {
	c := v.c
	if q.Rank != nil {
		return nil, fmt.Errorf("catalog: ranked query must go through EvaluateRanked")
	}
	if len(q.Attrs) == 0 {
		return nil, fmt.Errorf("catalog: query has no attribute criteria")
	}
	if c.caches.eval == nil {
		return v.evaluateUncached(q, tr)
	}
	computed := false
	ids, err := c.caches.eval.GetOrCompute(v.snap.Epoch(), queryCacheKey(q), func() ([]int64, error) {
		computed = true
		return v.evaluateUncached(q, tr)
	})
	if err != nil {
		if !computed && v.ctxErr() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// We joined another caller's in-flight computation and
			// inherited *its* cancellation; our own context is live, so
			// run the pipeline ourselves.
			return v.evaluateUncached(q, tr)
		}
		return nil, err
	}
	if !computed {
		// Answered from the evaluate cache (or by joining another
		// caller's in-flight computation) — no pipeline stages ran.
		tr.Annotate("evaluate-cache hit")
	}
	return slices.Clone(ids), nil
}

// evaluateUncached is the Figure-4 pipeline body, run entirely against
// the view's pinned snapshot. tr (which may be nil) receives one span
// per pipeline stage; the stage histograms are recorded regardless.
//
// The query compiles to one plan (plan.go) that a single executor
// (exec.go) walks. By default it runs under the compressed-bitmap
// strategy; Options.DisableBitmaps selects the row-slice strategy —
// the original row-at-a-time pipeline, kept as the correctness oracle —
// and a query whose IDs cannot be packed into instance keys falls back
// to it for that evaluation only.
func (v *view) evaluateUncached(q *Query, tr *obs.Trace) ([]int64, error) {
	if !v.c.opts.DisableBitmaps {
		ids, _, err := v.execPlan(q, tr, setStrategy{})
		if err == nil || !errors.Is(err, errBitmapRange) {
			return ids, err
		}
		tr.Annotate("bitmap-range fallback to row path")
	}
	ids, _, err := v.execPlan(q, tr, rowStrategy{})
	return ids, err
}

// satisfiedCols is the row layout flowing between the pipeline stages.
var satisfiedCols = []string{"object_id", "seq_id"}

// containmentRollup narrows n's directly-satisfied instances to those
// containing a satisfied instance of every child criterion, via the
// sub-attribute inverted list — set-based, no recursion over the data
// (§4). With the inverted list disabled (A1 ablation) it falls back to
// recursive parent-chasing over direct-parent links, which the ablation
// benchmark contrasts.
func (v *view) containmentRollup(n *qNode, satisfied map[int]relstore.Iterator) (relstore.Iterator, error) {
	if v.c.opts.DisableInvertedList {
		return v.recursiveRollup(n, satisfied)
	}
	subT := v.tab(TSubAttrs)
	var parts []relstore.Iterator
	for _, child := range n.children {
		// Inverted-list rows of the child's definition, narrowed to
		// ancestors of n's definition.
		ids, err := subT.LookupEqual("sub_attrs_by_child", relstore.Int(child.def.ID))
		if err != nil {
			return nil, err
		}
		links := relstore.Filter(relstore.ScanRowIDs(subT, ids), func(r relstore.Row) bool {
			return r[3].I == n.def.ID
		})
		// Join with the child's satisfied instances on (object, child
		// instance) to get the ancestor instances covering this child.
		joined := relstore.HashJoin(links, satisfied[child.id], []int{0, 2}, []int{0, 1}, relstore.SemiJoin)
		anc := relstore.Project(joined, []int{0, 4}, []string{"object_id", "seq_id"})
		parts = append(parts, tagIter(relstore.Distinct(anc), int64(child.id)))
	}
	counted := relstore.GroupBy(relstore.Union(parts...), []int{0, 1}, []relstore.AggSpec{
		{Func: relstore.AggCountDistinct, Col: 2, Name: "n_children"},
	})
	need := int64(len(n.children))
	covered := relstore.Filter(counted, func(r relstore.Row) bool { return r[2].I == need })
	coveredProj := relstore.Project(covered, []int{0, 1}, []string{"object_id", "seq_id"})
	// Intersect with the node's own directly-satisfied instances.
	return relstore.HashJoin(satisfied[n.id], coveredProj, []int{0, 1}, []int{0, 1}, relstore.SemiJoin), nil
}

// recursiveRollup is the non-inverted-list fallback (A1 ablation): with
// only direct-parent (depth-1) links stored, the ancestor instances of
// each satisfied child must be found by chasing parents level by level —
// the per-level self-joins that hinder the edge-table approach (§6).
func (v *view) recursiveRollup(n *qNode, satisfied map[int]relstore.Iterator) (relstore.Iterator, error) {
	subT := v.tab(TSubAttrs)
	type inst struct{ object, attrID, seq int64 }
	var parts []relstore.Iterator
	for _, child := range n.children {
		var frontier []inst
		for _, r := range relstore.Collect(satisfied[child.id]) {
			frontier = append(frontier, inst{r[0].I, child.def.ID, r[1].I})
		}
		seen := make(map[inst]bool)
		var anc []relstore.Row
		for len(frontier) > 0 {
			var next []inst
			for _, f := range frontier {
				// Depth-1 rows with this instance as the child.
				ids, err := subT.LookupEqual("sub_attrs_by_child", relstore.Int(f.attrID))
				if err != nil {
					return nil, err
				}
				for _, rid := range ids {
					r := subT.Get(rid)
					// r: object, child_attr, child_seq, anc_attr, anc_seq, depth
					if r == nil || r[5].I != 1 || r[0].I != f.object || r[2].I != f.seq {
						continue
					}
					parent := inst{r[0].I, r[3].I, r[4].I}
					if seen[parent] {
						continue
					}
					seen[parent] = true
					if parent.attrID == n.def.ID {
						anc = append(anc, relstore.Row{r[0], r[4]})
					}
					next = append(next, parent)
				}
			}
			frontier = next
		}
		parts = append(parts, tagIter(relstore.NewSliceIter([]string{"object_id", "seq_id"}, anc), int64(child.id)))
	}
	counted := relstore.GroupBy(relstore.Union(parts...), []int{0, 1}, []relstore.AggSpec{
		{Func: relstore.AggCountDistinct, Col: 2, Name: "n_children"},
	})
	need := int64(len(n.children))
	covered := relstore.Filter(counted, func(r relstore.Row) bool { return r[2].I == need })
	coveredProj := relstore.Project(covered, []int{0, 1}, []string{"object_id", "seq_id"})
	return relstore.HashJoin(satisfied[n.id], coveredProj, []int{0, 1}, []int{0, 1}, relstore.SemiJoin), nil
}

// tagIter appends a constant tag column to every row.
func tagIter(in relstore.Iterator, tag int64) relstore.Iterator {
	cols := append(append([]string{}, in.Columns()...), "tag")
	return &taggedIter{in: in, cols: cols, tag: relstore.Int(tag)}
}

type taggedIter struct {
	in   relstore.Iterator
	cols []string
	tag  relstore.Value
}

func (t *taggedIter) Columns() []string { return t.cols }

func (t *taggedIter) Next() (relstore.Row, bool) {
	r, ok := t.in.Next()
	if !ok {
		return nil, false
	}
	out := make(relstore.Row, 0, len(r)+1)
	out = append(out, r...)
	return append(out, t.tag), true
}
