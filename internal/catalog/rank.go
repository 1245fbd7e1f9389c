package catalog

import (
	"context"
	"fmt"

	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/textindex"
)

// Ranked content-and-structure retrieval: the rank plan operator. A
// query carrying a RankSpec is answered by BM25 top-k over an inverted
// index of every attribute element's text value (internal/textindex),
// composed with the structural pipeline: when the query also has
// attribute criteria, only objects the structural plan admits are
// scored; without criteria, ranking runs over everything the owner may
// see. The index is epoch-stamped like the evaluate and postings layers —
// built lazily from the pinned snapshot on the first ranked query,
// advanced by snapshot diff on the first ranked query after a mutation
// (the writer does no index work), and shared read-only by concurrent
// rankers.
//
// For sharded deployments, scoring is a two-phase scatter: TextStats
// collects each shard's corpus statistics, the router sums them
// (textindex.Stats.Merge), and EvaluateRankedStats scores every shard
// with the global statistics — making the k-way merged ranking
// bit-identical to a single catalog holding the union of the shards.

// DefaultRankK is the result bound when RankSpec.K is zero.
const DefaultRankK = 10

// RankSpec asks for BM25 ranked retrieval: free-text terms (analyzed by
// the same tokenizer that indexes values) and the result bound k.
type RankSpec struct {
	Terms []string
	K     int
}

// ScoredID is one ranked result: an object and its BM25 score, ordered
// score-descending with ties broken by ascending ID.
type ScoredID struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

// stampedText is the epoch-stamped immutable text index held in
// Catalog.text. mark pins the elem_data row pages of the version idx
// describes — those pages and nothing else of that version — so the
// next reader can diff its own version against them.
type stampedText struct {
	epoch uint64
	idx   *textindex.Index
	mark  *relstore.TableMark
}

// textDiffPageDivisor bounds the incremental path: when more than
// 1/textDiffPageDivisor of elem_data's row pages differ between the
// indexed version and the reader's, the diff is abandoned and the index
// rebuilt from a full scan, which also re-pins the mark.
const textDiffPageDivisor = 4

// elem_data columns the text index reads: every textual element value
// of every attribute instance, credited to its object.
const (
	elemColObject = 0
	elemColSval   = 3
)

// textIndexAt returns the text index for the view's pinned epoch. When
// the published one is of another epoch it is advanced to the view's
// version by diffing elem_data's row pages (relstore.TableMark.Diff)
// and re-indexing only the objects whose rows changed; a full scan
// remains for the first ranked query and for a table that cannot be
// diffed. The diff runs in either direction, so a reader pinned behind
// the published index gets its own epoch's index the same way; only an
// index at or ahead of the published epoch is published, so such a
// reader never regresses the shared one. The double-checked mutex makes
// concurrent ranked queries after a mutation advance once.
func (c *Catalog) textIndexAt(v *view) (*textindex.Index, error) {
	epoch := v.snap.Epoch()
	if cur := c.text.Load(); cur != nil && cur.epoch == epoch {
		return cur.idx, nil
	}
	c.textMu.Lock()
	defer c.textMu.Unlock()
	cur := c.text.Load()
	if cur != nil && cur.epoch == epoch {
		return cur.idx, nil
	}
	elem := v.tab(TElemData)
	next := &stampedText{epoch: epoch, mark: elem.Mark()}
	if cur != nil {
		next.idx = c.advanceText(cur, elem, next.mark)
	}
	if next.idx == nil {
		next.idx = scanTextIndex(elem)
		c.obsv.textBuilds.Inc()
	}
	if cur == nil || cur.epoch <= epoch {
		c.text.Store(next)
	}
	return next.idx, nil
}

// scanTextIndex builds the text index of the version elem reads from a
// full scan.
func scanTextIndex(elem *relstore.Table) *textindex.Index {
	b := textindex.NewBuilder()
	elem.Scan(func(_ int64, r relstore.Row) bool {
		if r[elemColSval].K == relstore.KString {
			b.Add(r[elemColObject].I, r[elemColSval].S)
		}
		return true
	})
	return b.Build()
}

// advanceText moves cur's index to the version elem reads (whose pages
// are marked by to), or returns nil when the table cannot be diffed.
// An object with any changed text row is re-indexed whole from elem, so
// partial changes (AddAttribute) and reused row slots need no special
// case.
func (c *Catalog) advanceText(cur *stampedText, elem *relstore.Table, to *relstore.TableMark) *textindex.Index {
	touched := make(map[int64]struct{})
	var rows uint64
	limit := (max(cur.mark.Pages(), to.Pages()) + textDiffPageDivisor - 1) / textDiffPageDivisor
	if !cur.mark.Diff(to, limit, func(_ int64, old, new relstore.Row) {
		rows++
		for _, r := range [2]relstore.Row{old, new} {
			if r != nil && r[elemColSval].K == relstore.KString {
				touched[r[elemColObject].I] = struct{}{}
			}
		}
	}) {
		return nil
	}
	c.obsv.textAdvances.Inc()
	c.obsv.textDeltaRows.Add(rows)
	if len(touched) == 0 {
		return cur.idx
	}
	removed := make([]int64, 0, len(touched))
	added := textindex.NewBuilder()
	for doc := range touched {
		removed = append(removed, doc)
		// The index exists on every version of elem_data, so the lookup
		// cannot fail; an object with no rows left is just removed.
		ids, _ := elem.LookupEqual("elem_data_by_object", relstore.Int(doc))
		for _, id := range ids {
			if r := elem.Get(id); r[elemColSval].K == relstore.KString {
				added.Add(doc, r[elemColSval].S)
			}
		}
	}
	return cur.idx.Apply(removed, added)
}

// EvaluateRanked runs a ranked query and returns the BM25 top-k object
// IDs with scores, composed with the query's structural criteria and
// owner scoping.
func (c *Catalog) EvaluateRanked(q *Query) ([]ScoredID, error) {
	return c.EvaluateRankedStats(context.Background(), q, nil)
}

// EvaluateRankedContext is EvaluateRanked honoring ctx between stages.
func (c *Catalog) EvaluateRankedContext(ctx context.Context, q *Query) ([]ScoredID, error) {
	return c.EvaluateRankedStats(ctx, q, nil)
}

// EvaluateRankedStats is EvaluateRankedContext scoring with the given
// corpus statistics instead of the local index's own — the shard
// scatter passes globally summed statistics here so per-shard scores
// agree with a single-catalog ranking. A nil st scores locally.
func (c *Catalog) EvaluateRankedStats(ctx context.Context, q *Query, st *textindex.Stats) ([]ScoredID, error) {
	tr, done := c.beginOp("rank", c.obsv.opRank)
	defer done()
	return c.pinViewCtx(ctx).evaluateRanked(q, st, tr)
}

// evaluateRanked is the rank operator body: structural candidates (or
// owner visibility) gate admission, then the text index scores the
// analyzed terms over one pinned snapshot.
func (v *view) evaluateRanked(q *Query, st *textindex.Stats, tr *obs.Trace) ([]ScoredID, error) {
	c := v.c
	if q.Rank == nil || len(q.Rank.Terms) == 0 {
		return nil, fmt.Errorf("catalog: ranked query has no rank terms")
	}
	idx, err := c.textIndexAt(v)
	if err != nil {
		return nil, err
	}
	var allow func(int64) bool
	if len(q.Attrs) > 0 {
		// Structural composition: run the Figure-4 plan (through the
		// evaluate cache; visibility already applied) and admit only its
		// matches into scoring.
		structural := *q
		structural.Rank = nil
		ids, err := v.evaluateTraced(&structural, tr)
		if err != nil {
			return nil, err
		}
		member := make(map[int64]bool, len(ids))
		for _, id := range ids {
			member[id] = true
		}
		allow = func(id int64) bool { return member[id] }
	} else if allow, err = v.visibleFilter(q.Owner); err != nil {
		return nil, err
	}
	if err := v.ctxErr(); err != nil {
		return nil, err
	}
	k := q.Rank.K
	if k <= 0 {
		k = DefaultRankK
	}
	endRank := c.stageTimer(tr, "rank", c.obsv.stageRank)
	terms := textindex.AnalyzeTerms(q.Rank.Terms)
	scored := idx.TopK(terms, k, st, allow)
	endRank(int64(len(scored)))
	out := make([]ScoredID, len(scored))
	for i, s := range scored {
		out[i] = ScoredID{ID: s.Doc, Score: s.Score}
	}
	return out, nil
}

// visibleFilter is the rank operator's admission test for a query
// without structural criteria: membership in the owner's visible set.
// It is nil, admitting everything, for the superuser.
func (v *view) visibleFilter(owner string) (func(int64) bool, error) {
	if owner == "" {
		return nil, nil
	}
	visible, err := v.visibleSet(owner)
	if err != nil {
		return nil, err
	}
	return func(id int64) bool { return contains(visible, uint64(id)) }, nil
}

// TextStats returns this catalog's corpus statistics for the analyzed
// query terms — phase one of the sharded two-phase ranking.
func (c *Catalog) TextStats(terms []string) (textindex.Stats, error) {
	v := c.pinView()
	idx, err := c.textIndexAt(v)
	if err != nil {
		return textindex.Stats{}, err
	}
	return idx.StatsFor(textindex.AnalyzeTerms(terms)), nil
}

// RankedResponse is one ranked search result with its rebuilt document.
type RankedResponse struct {
	ObjectID int64
	Score    float64
	XML      string
	doc      *builtDoc // see Response.doc
}

// AppendJSONString appends r.XML as a JSON string literal; see
// Response.AppendJSONString.
func (r RankedResponse) AppendJSONString(dst []byte) []byte {
	return appendJSONString(dst, r.XML, r.doc)
}

// SearchRanked evaluates a ranked query and builds the tagged response
// documents, preserving score order, against one pinned snapshot.
func (c *Catalog) SearchRanked(ctx context.Context, q *Query) ([]RankedResponse, error) {
	tr, done := c.beginOp("search", c.obsv.opSearch)
	defer done()
	v := c.pinViewCtx(ctx)
	scored, err := v.evaluateRanked(q, nil, tr)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(scored))
	scoreOf := make(map[int64]float64, len(scored))
	for i, s := range scored {
		ids[i] = s.ID
		scoreOf[s.ID] = s.Score
	}
	resp, err := v.buildResponseTraced(ids, tr)
	if err != nil {
		return nil, err
	}
	out := make([]RankedResponse, len(resp))
	for i, r := range resp {
		out[i] = r.Ranked(scoreOf[r.ObjectID])
	}
	return out, nil
}

// explainRank renders the rank operator's explain lines: the analyzed
// terms with per-term document frequencies, the index dimensions, and
// the admitted top-k count. structural carries the structural plan's
// visible matches (ignored for rank-only queries, which admit by owner
// visibility instead).
func (v *view) explainRank(q *Query, structural []int64, rankOnly bool) ([]string, error) {
	idx, err := v.c.textIndexAt(v)
	if err != nil {
		return nil, err
	}
	terms := textindex.AnalyzeTerms(q.Rank.Terms)
	k := q.Rank.K
	if k <= 0 {
		k = DefaultRankK
	}
	var lines []string
	if rankOnly {
		lines = append(lines, "query: 0 criteria node(s), ranked retrieval only")
		lines = append(lines, "plan: rank()")
	}
	lines = append(lines, fmt.Sprintf("rank: %d analyzed term(s) %v, k=%d over text index (docs=%d, terms=%d)",
		len(terms), terms, k, idx.Docs(), idx.Terms()))
	for _, t := range terms {
		lines = append(lines, fmt.Sprintf("rank: term %q df=%d", t, idx.DocFreq(t)))
	}
	var allow func(int64) bool
	if rankOnly {
		if allow, err = v.visibleFilter(q.Owner); err != nil {
			return nil, err
		}
	} else {
		member := make(map[int64]bool, len(structural))
		for _, id := range structural {
			member[id] = true
		}
		allow = func(id int64) bool { return member[id] }
	}
	scored := idx.TopK(terms, k, nil, allow)
	lines = append(lines, fmt.Sprintf("rank: top-%d -> %d ranked result(s)", k, len(scored)))
	return lines, nil
}
