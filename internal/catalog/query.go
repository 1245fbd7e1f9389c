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
		def := v.defs.LookupAttr(crit.Name, crit.Source, parentID, q.Owner)
		if def == nil {
			return nil, fmt.Errorf("%w: attribute %q (source %q)", ErrUnknownDefinition, crit.Name, crit.Source)
		}
		if !def.Queryable {
			return nil, fmt.Errorf("catalog: attribute %q (source %q) is not queryable", crit.Name, crit.Source)
		}
		n := &qNode{id: len(all) + 1, parent: parent, def: def}
		all = append(all, n)
		for _, ep := range crit.Elems {
			edef := v.defs.LookupElem(ep.Name, ep.Source, def.ID, q.Owner)
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
// pipeline. The cached slice is cloned on every hit so callers may
// mutate their result freely.
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
		return nil, err
	}
	if !computed {
		tr.Annotate("evaluate-cache hit")
	}
	return slices.Clone(ids), nil
}

// evaluateUncached is the Figure-4 pipeline body, run entirely against
// the view's pinned snapshot: the query compiles to one plan (plan.go)
// that the executor (exec.go) walks over sorted instance-key lists. tr
// (which may be nil) receives one span per pipeline stage; the stage
// histograms are recorded regardless.
func (v *view) evaluateUncached(q *Query, tr *obs.Trace) ([]int64, error) {
	ids, _, err := v.execPlan(q, tr)
	return ids, err
}
