package catalog

import "fmt"

// ExplainQuery runs the Figure-4 pipeline and renders its compiled,
// executed plan: the operator tree, then per plan node the resolved
// definition, the instance count flowing through it, and whether the
// postings cache layer answered it — and finally the matching object
// count. The
// trace is the textual analogue of the paper's Figure 4 flow diagram;
// mdcat prints it for -explain queries.
//
// The explain executes the same plan Evaluate would, so cardinalities
// and cache hits reflect what a real evaluation of the query sees. A
// ranked query appends the rank operator's term statistics and result
// count.
func (c *Catalog) ExplainQuery(q *Query) ([]string, error) {
	if len(q.Attrs) == 0 && q.Rank == nil {
		return nil, fmt.Errorf("catalog: query has no attribute criteria")
	}
	v := c.pinView()
	if len(q.Attrs) == 0 {
		// Ranked-only: no structural plan to execute.
		return v.explainRank(q, nil, true)
	}

	structural := *q
	structural.Rank = nil
	visible, p, err := v.execPlan(&structural, nil)
	if err != nil {
		return nil, err
	}

	lines := renderPlan(q, p, len(visible))
	if q.Rank != nil {
		rl, err := v.explainRank(q, visible, false)
		if err != nil {
			return nil, err
		}
		lines = append(lines, rl...)
	}
	return lines, nil
}

// nodeHeader renders the shared per-node prefix of an explain line.
func nodeHeader(n *qNode) string {
	kind := "structural"
	if n.def.Dynamic {
		kind = "dynamic"
	}
	return fmt.Sprintf("node %d: %s attribute %q (source %q, def %d): %d element predicate(s)",
		n.id, kind, n.def.Name, n.def.Source, n.def.ID, len(n.elems))
}

// renderPlan turns an executed plan's node annotations into explain
// lines, one per operator in execution order.
func renderPlan(q *Query, p *queryPlan, visible int) []string {
	var lines []string
	lines = append(lines, fmt.Sprintf("query: %d criteria node(s), %d top-level (sorted key-list set ops)", len(p.all), len(p.tops)))
	lines = append(lines, "plan: "+p.planString())
	for _, sc := range p.scans {
		line := fmt.Sprintf("%s -> %d directly satisfied instance(s)", nodeHeader(sc.q), sc.card)
		if sc.cacheHit {
			line += " [cache hit]"
		}
		lines = append(lines, line)
	}
	for _, rn := range p.rollups {
		lines = append(lines, fmt.Sprintf("node %d: containment rollup over %d child criterion(s): %d -> %d instance(s)",
			rn.q.id, len(rn.q.children), rn.beforeCard, rn.card))
	}
	for _, to := range p.topObjs {
		lines = append(lines, fmt.Sprintf("top node %d: %d candidate object(s)", to.id, to.card))
	}
	lines = append(lines, fmt.Sprintf("objects satisfying all %d top-level criteria (visible to %q): %d",
		len(p.tops), q.Owner, visible))
	return lines
}
