package catalog

import "github.com/gridmeta/hybridcat/internal/textindex"

// Hooks for the external ranked-retrieval suite (rank_test.go), which
// cannot live in this package because it imports internal/workload.

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
