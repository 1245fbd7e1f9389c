package catalog

import (
	"testing"

	"github.com/gridmeta/hybridcat/internal/textindex"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// Hooks for the external suites — ranked retrieval (rank_test.go) and
// the tree round trip (tree_replay_test.go), which import
// internal/workload, and the response-cache oracle
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
