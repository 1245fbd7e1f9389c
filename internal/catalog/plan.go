package catalog

import (
	"fmt"
	"strings"

	"github.com/gridmeta/hybridcat/internal/relstore"
)

// Query planner. compile lowers a resolved criteria tree (query.go)
// into an explicit plan: a tree of operator nodes that the executor
// (exec.go) walks over sorted instance-key lists. The criterion
// dispatch happens exactly once here: every element predicate compiles
// to probeSpecs naming the index and the key ranges whose entries
// satisfy it. ExplainQuery renders the plan after an
// execution annotated it with per-node cardinalities and cache hits.
//
// Operator vocabulary:
//
//	postings-scan  equality probe emitting the index's posting list
//	range-scan     B-tree range probe (bounds from the predicate; Ne is
//	               the two ranges either side of the value)
//	or             union of equality probes (OneOf / ontology expansion)
//	scan-all       every instance of the definition (no element criteria)
//	scan           per-criterion AND over its element probes (stage 1+2)
//	rollup         inverted-list containment rollup (stage 3)
//	intersect      cross-criteria object AND + visibility (stage 4)
//	rank           BM25 top-k over the text index (rank.go)
//	page           offset/limit over the intersect order (EvaluatePage)
const (
	opPostingsScan = "postings-scan"
	opRangeScan    = "range-scan"
	opOrUnion      = "or"
	opScanAll      = "scan-all"
	opScan         = "scan"
	opRollup       = "rollup"
	opIntersect    = "intersect"
	opRank         = "rank"
	opPage         = "page"
)

// probeSpec is one key range of an element predicate's physical index
// probe: which index to hit and the bounds. An equality probe is the
// inclusive range of one key prefix. Every range is exact — the
// executor decodes the instance keys of all the entries in it — so no
// residual row filter exists. This is the single home of the
// operator/index dispatch.
type probeSpec struct {
	index  string
	lo, hi relstore.RangeBound
}

// probePlan is one element predicate's compiled probe: its operator
// (postings-scan, range-scan, or an or-union of equality probes) plus
// the specs to execute. An unsupported comparison operator compiles to
// zero specs — an empty result.
type probePlan struct {
	op    string
	elem  qElem
	specs []probeSpec
}

// planNode is one operator in a compiled query plan. The executor
// annotates nodes as it runs them — cardinality, cache hit — and
// ExplainQuery renders those annotations; plans are compiled
// per evaluation, so annotating is race-free.
type planNode struct {
	op       string
	q        *qNode     // criteria node (scan and rollup operators)
	probe    *probePlan // probe-leaf detail
	children []*planNode

	card       int  // instances (or objects, for intersect) produced
	beforeCard int  // rollup only: instances before narrowing
	cacheHit   bool // served from the postings cache layer
}

// topObjects is the intersect stage's per-top-criterion annotation:
// each top-level criterion's candidate object set entering the AND
// chain.
type topObjects struct {
	id   int
	card int
}

// queryPlan is a compiled query: the resolved criteria nodes plus the
// operator tree over them. scans aligns with all; rollups is in
// reverse-DFS order (children before parents), which is execution
// order.
type queryPlan struct {
	all     []*qNode
	tops    []*qNode
	scans   []*planNode
	rollups []*planNode
	root    *planNode // intersect; its children are the per-top operator subtrees
	rank    *planNode // non-nil when the query carries a RankSpec
	topObjs []topObjects
}

// compile resolves the query against the pinned definitions and lowers it
// into a plan tree.
func (v *view) compile(q *Query) (*queryPlan, error) {
	all, tops, err := v.resolve(q)
	if err != nil {
		return nil, err
	}
	p := &queryPlan{all: all, tops: tops}
	nodeOf := make(map[int]*planNode, len(all))
	for _, n := range all {
		sc := &planNode{op: opScan, q: n}
		for _, qe := range n.elems {
			pp, err := compileProbe(qe)
			if err != nil {
				return nil, err
			}
			sc.children = append(sc.children, &planNode{op: pp.op, q: n, probe: pp})
		}
		if len(n.elems) == 0 {
			sc.children = append(sc.children, &planNode{op: opScanAll, q: n, probe: &probePlan{op: opScanAll}})
		}
		p.scans = append(p.scans, sc)
		nodeOf[n.id] = sc
	}
	for i := len(all) - 1; i >= 0; i-- {
		n := all[i]
		if len(n.children) == 0 {
			continue
		}
		rn := &planNode{op: opRollup, q: n, children: []*planNode{nodeOf[n.id]}}
		for _, ch := range n.children {
			rn.children = append(rn.children, nodeOf[ch.id])
		}
		nodeOf[n.id] = rn
		p.rollups = append(p.rollups, rn)
	}
	p.root = &planNode{op: opIntersect}
	for _, top := range tops {
		p.root.children = append(p.root.children, nodeOf[top.id])
	}
	if q.Rank != nil {
		p.rank = &planNode{op: opRank, children: []*planNode{p.root}}
	}
	return p, nil
}

// compileProbe lowers one element predicate into its probe plan. OneOf
// becomes an or-union of equality specs; everything else is a single
// postings or range scan.
func compileProbe(qe qElem) (*probePlan, error) {
	if len(qe.pred.OneOf) > 0 {
		if qe.pred.Op != relstore.OpEq {
			return nil, fmt.Errorf("catalog: OneOf requires an equality predicate")
		}
		pp := &probePlan{op: opOrUnion, elem: qe}
		for _, val := range qe.pred.OneOf {
			single := qe.pred
			single.OneOf = nil
			single.Value = val
			pp.specs = append(pp.specs, compileSpecs(qe.def.ID, single)...)
		}
		return pp, nil
	}
	pp := &probePlan{op: opPostingsScan, elem: qe, specs: compileSpecs(qe.def.ID, qe.pred)}
	if len(pp.specs) > 0 && qe.pred.Op != relstore.OpEq {
		pp.op = opRangeScan
	}
	return pp, nil
}

// incl and excl build the range bounds used below.
func incl(vals ...relstore.Value) relstore.RangeBound {
	return relstore.RangeBound{Vals: vals, Inclusive: true, Set: true}
}

func excl(vals ...relstore.Value) relstore.RangeBound {
	return relstore.RangeBound{Vals: vals, Inclusive: false, Set: true}
}

// compileSpecs maps (definition, operator, value) to the key ranges of
// the physical probe: typed numeric predicates hit the nval B-tree,
// everything else the sval B-tree. Both indexes are keyed (elem_id,
// value, object_id, seq_id). No specs means the operator is unsupported
// and the probe produces nothing.
func compileSpecs(defID int64, pred ElemPred) []probeSpec {
	eid := relstore.Int(defID)
	// incl(eid) bounds all of the definition's values in either index:
	// the shredder writes every element's text to sval, never NULL, and
	// an element whose text is not numeric has a NULL nval and so no
	// elem_data_by_nval entry.
	ix, val := "elem_data_by_sval", relstore.Value{}
	if f, isNum := pred.Value.AsFloat(); isNum && (pred.Value.K == relstore.KInt || pred.Value.K == relstore.KFloat) {
		ix, val = "elem_data_by_nval", relstore.Float(f)
	} else {
		val = relstore.Str(pred.Value.AsString())
	}
	spec := func(lo, hi relstore.RangeBound) []probeSpec {
		return []probeSpec{{index: ix, lo: lo, hi: hi}}
	}
	switch pred.Op {
	case relstore.OpEq:
		return spec(incl(eid, val), incl(eid, val))
	case relstore.OpLt:
		return spec(incl(eid), excl(eid, val))
	case relstore.OpLe:
		return spec(incl(eid), incl(eid, val))
	case relstore.OpGt:
		return spec(excl(eid, val), incl(eid))
	case relstore.OpGe:
		return spec(incl(eid, val), incl(eid))
	case relstore.OpNe:
		return append(spec(incl(eid), excl(eid, val)), spec(excl(eid, val), incl(eid))...)
	}
	return nil
}

// planString renders the operator tree in one line, e.g.
// "intersect(rollup#1(scan#1[range-scan], scan#2[postings-scan]))".
func (p *queryPlan) planString() string {
	var b strings.Builder
	root := p.root
	if p.rank != nil {
		root = p.rank
	}
	renderPlanNode(&b, root)
	return b.String()
}

func renderPlanNode(b *strings.Builder, pn *planNode) {
	switch pn.op {
	case opScan:
		fmt.Fprintf(b, "scan#%d[", pn.q.id)
		for i, c := range pn.children {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(c.op)
		}
		b.WriteByte(']')
	case opRollup:
		fmt.Fprintf(b, "%s#%d(", pn.op, pn.q.id)
		for i, c := range pn.children {
			if i > 0 {
				b.WriteString(", ")
			}
			renderPlanNode(b, c)
		}
		b.WriteByte(')')
	default:
		b.WriteString(pn.op)
		b.WriteByte('(')
		for i, c := range pn.children {
			if i > 0 {
				b.WriteString(", ")
			}
			renderPlanNode(b, c)
		}
		b.WriteByte(')')
	}
}
