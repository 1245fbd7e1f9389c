package catalog

import (
	"maps"
	"testing"

	"github.com/gridmeta/hybridcat/internal/textindex"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// Hooks for the external suites — ranked retrieval (rank_test.go), the
// tree round trip (tree_replay_test.go) and the rollup chase
// (rollup_test.go), which import internal/workload, and the
// response-cache oracle
// (response_oracle_test.go), which imports internal/shard — that cannot
// live in this package.

// StateFingerprint and DiffFingerprint are the crash suites' whole-state
// comparison (crash_test.go).
var StateFingerprint, DiffFingerprint = stateFingerprint, diffFingerprint

// LenientDoc is the Figure 3 document with an undeclared element (see
// lenientDoc).
func LenientDoc(t *testing.T) *xmldoc.Node { return lenientDoc(t) }

// TextIndexVsScratch pins the current version and returns the text
// index a ranked query would be served there — built, advanced or
// reused — next to one built from scratch over the same snapshot.
func (c *Catalog) TextIndexVsScratch() (served, scratch *textindex.Index, err error) {
	v := c.pinView()
	if served, err = c.textIndexAt(v); err != nil {
		return nil, nil, err
	}
	return served, scanTextIndex(v.tab(TElemData)), nil
}

// PinRanked pins a view now and returns a function that evaluates
// ranked queries against it later, after the catalog has moved on.
func (c *Catalog) PinRanked() func(q *Query) ([]ScoredID, error) {
	v := c.pinView()
	return func(q *Query) ([]ScoredID, error) { return v.evaluateRanked(q, nil, nil) }
}

// PinResponses pins a view now and returns a function that answers, for
// ids, what a reader pinned there is served (through the response cache
// when it is on) next to the §5 build run fresh on the same view, keyed
// by object ID. The response-cache oracle judges the first by the
// second.
func (c *Catalog) PinResponses() func(ids []int64) (served []Response, fresh map[int64]string, err error) {
	v := c.pinView()
	return func(ids []int64) ([]Response, map[int64]string, error) {
		served, err := v.buildResponseTraced(ids, nil)
		if err != nil {
			return nil, nil, err
		}
		built, err := v.buildResponseChunk(ids)
		if err != nil {
			return nil, nil, err
		}
		fresh := make(map[int64]string, len(built))
		for id, doc := range built {
			fresh[id] = doc.xml
		}
		return served, fresh, nil
	}
}

// RollupStages pins a view, compiles q and runs its probe stage, and
// returns two runs of the rollup stage over those probe sets, each
// giving every criterion's set afterwards: one through rollupSet, one
// through chaseRollupSet.
func (c *Catalog) RollupStages(q *Query) (rollup, chase func() (map[int][]uint64, error), err error) {
	v := c.pinView()
	p, err := v.compile(q)
	if err != nil {
		return nil, nil, err
	}
	probed, err := v.probeStage(p)
	if err != nil {
		return nil, nil, err
	}
	stage := func(roll func(*view, *qNode, map[int][]uint64) ([]uint64, error)) func() (map[int][]uint64, error) {
		return func() (map[int][]uint64, error) {
			sets := maps.Clone(probed)
			for _, rn := range p.rollups {
				s, err := roll(v, rn.q, sets)
				if err != nil {
					return nil, err
				}
				sets[rn.q.id] = s
			}
			return sets, nil
		}
	}
	return stage((*view).rollupSet), stage((*view).chaseRollupSet), nil
}

// chaseRollupSet is the rollup of a design that stores only depth-1
// parent links (the edge-table approach, §6): each child's cover set is
// found by chasing parents level by level up to the root, one join of
// the frontier against the (definition, parent definition) links per
// level. A definition's parent is fixed in the registry, so the
// inverted list's (child, parent) prefixes hold exactly those links.
func (v *view) chaseRollupSet(n *qNode, sets map[int][]uint64) ([]uint64, error) {
	subT := v.tab(TSubAttrs)
	covers := make([][]uint64, 0, len(n.children)+1)
	for _, child := range n.children {
		var cover []uint64
		frontier := sets[child.id]
		for def := child.def; def.ParentID != 0 && len(frontier) > 0; {
			parent := v.defs.AttrByID(def.ParentID)
			if parent == nil {
				break
			}
			next, err := coverSet(subT, def.ID, parent.ID, frontier)
			if err != nil {
				return nil, err
			}
			if parent.ID == n.def.ID {
				cover = next
			}
			frontier, def = next, parent
		}
		covers = append(covers, cover)
	}
	covers = append(covers, sets[n.id])
	return andAscending(covers), nil
}
