package catalog

import (
	"fmt"
	"strings"

	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// Response is one tagged XML document built for a query result.
type Response struct {
	ObjectID int64
	XML      string
}

// Event kinds in the sorted outer union. The numeric order makes the
// final sort place an opening tag before the content at the same global
// order, and content before closing tags anchored at the same last-child
// order.
const (
	evOpen    = 0
	evContent = 1
	evClose   = 2
)

// BuildResponse reconstructs the schema-ordered XML documents for the
// given object IDs using only set operations (§5):
//
//  1. fetch the objects' CLOB rows (index join; the CLOB column is not
//     touched until the final concatenation),
//  2. join the node-ancestor inverted list for the distinct required
//     ancestors,
//  3. join the global-ordering table for each ancestor's tag, last-child
//     order, and depth, emitting opening and closing tag events,
//  4. union with the CLOB content events and sort by (object, order,
//     kind, tie) — the concatenated result is already tagged, with no
//     external tagger.
//
// Responses come back in the order of ids; unknown IDs are skipped.
func (c *Catalog) BuildResponse(ids []int64) ([]Response, error) {
	tr, done := c.beginOp("response", c.obsv.opResponse)
	defer done()
	return c.pinView().buildResponseTraced(ids, tr)
}

// buildResponseTraced builds responses against the view's pinned
// snapshot; the whole build is one "response" stage span on the
// (possibly nil) trace, annotated with the response-cache hit/miss
// split.
//
// With the response cache on, per-object documents recalled at the
// pinned epoch skip the build entirely; only cache misses go through
// the §5 plan, and their results are stored for the next overlapping
// result set. Objects that do not exist produce no map entry and are
// never cached, so a later ingest of that ID is visible immediately.
func (v *view) buildResponseTraced(ids []int64, tr *obs.Trace) ([]Response, error) {
	c := v.c
	if len(ids) == 0 {
		return nil, nil
	}
	end := c.stageTimer(tr, "response", c.obsv.stageResponse)
	// De-duplicate, preserving first-occurrence order.
	uniq := make([]int64, 0, len(ids))
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	gen := v.snap.Epoch()
	byObject := make(map[int64]string, len(uniq))
	need := uniq
	if c.caches.response != nil {
		need = make([]int64, 0, len(uniq))
		for _, id := range uniq {
			if xml, ok := c.caches.response.Get(gen, id); ok {
				byObject[id] = xml
			} else {
				need = append(need, id)
			}
		}
		if tr != nil {
			tr.Annotate(fmt.Sprintf("response-cache hits=%d misses=%d", len(uniq)-len(need), len(need)))
		}
	}
	if len(need) > 0 {
		m, err := v.buildResponseChunk(need)
		if err != nil {
			return nil, err
		}
		for id, xml := range m {
			byObject[id] = xml
			c.caches.response.Put(gen, id, xml)
		}
	}
	var out []Response
	for _, id := range uniq {
		if xml, ok := byObject[id]; ok {
			out = append(out, Response{ObjectID: id, XML: xml})
		}
	}
	end(int64(len(out)))
	return out, nil
}

// buildResponseChunk runs the §5 set-based plan for one batch of object
// IDs against the pinned snapshot and returns each object's tagged XML.
func (v *view) buildResponseChunk(ids []int64) (map[int64]string, error) {
	clobT := v.tab(TClobs)
	ancT := v.tab(TNodeAncestors)
	nodeT := v.tab(TSchemaNodes)

	// Step 1: CLOB rows for the requested objects, via the per-object
	// B-tree index.
	var clobRowIDs []int64
	for _, id := range ids {
		rowIDs, err := clobT.LookupRange("clobs_by_object",
			relstore.RangeBound{Vals: []relstore.Value{relstore.Int(id)}, Inclusive: true, Set: true},
			relstore.RangeBound{Vals: []relstore.Value{relstore.Int(id)}, Inclusive: true, Set: true})
		if err != nil {
			return nil, err
		}
		clobRowIDs = append(clobRowIDs, rowIDs...)
	}
	if len(clobRowIDs) == 0 {
		return map[int64]string{}, nil
	}

	// Content events: [object, order, kind, tie, text]. The CLOB column
	// is carried only here, in the final union input.
	content := relstore.Project(relstore.ScanRowIDs(clobT, clobRowIDs),
		[]int{0, 1, 2, 5}, []string{"object_id", "node_order", "clob_seq", "clob"})
	contentEvents := &eventIter{
		in:   content,
		cols: eventCols,
		make: func(r relstore.Row) []relstore.Row {
			return []relstore.Row{{r[0], r[1], relstore.Int(evContent), r[2], r[3]}}
		},
	}

	// Step 2: distinct (object, node_order) pairs joined with the
	// ancestor inverted list -> distinct (object, anc_order).
	positions := relstore.Distinct(relstore.Project(relstore.ScanRowIDs(clobT, clobRowIDs),
		[]int{0, 1}, []string{"object_id", "node_order"}))
	ancRows := relstore.HashJoin(positions, relstore.ScanTable(ancT), []int{1}, []int{0}, relstore.InnerJoin)
	required := relstore.Distinct(relstore.Project(ancRows, []int{0, 3}, []string{"object_id", "anc_order"}))

	// Step 3: join the global ordering for tags and last-child orders;
	// each required ancestor yields an open and a close event.
	withTags := relstore.HashJoin(required, relstore.ScanTable(nodeT), []int{1}, []int{0}, relstore.InnerJoin)
	// Columns: object_id, anc_order, node_order, tag, parent, last_child, depth, is_attr
	tagEvents := &eventIter{
		in:   withTags,
		cols: eventCols,
		make: func(r relstore.Row) []relstore.Row {
			object, order := r[0], r[1]
			tag, last, depth := r[3].S, r[5], r[6].I
			return []relstore.Row{
				{object, order, relstore.Int(evOpen), relstore.Int(depth), relstore.Str("<" + tag + ">")},
				{object, last, relstore.Int(evClose), relstore.Int(-depth), relstore.Str("</" + tag + ">")},
			}
		},
	}

	// Step 4: sorted outer union.
	events := relstore.Sort(relstore.Union(contentEvents, tagEvents),
		relstore.SortSpec{Col: 0}, // object
		relstore.SortSpec{Col: 1}, // global order
		relstore.SortSpec{Col: 2}, // kind: open, content, close
		relstore.SortSpec{Col: 3}, // tie: depth / clob_seq / -depth
	)

	// Concatenate per object.
	byObject := make(map[int64]*strings.Builder)
	for {
		r, ok := events.Next()
		if !ok {
			break
		}
		b := byObject[r[0].I]
		if b == nil {
			b = &strings.Builder{}
			byObject[r[0].I] = b
		}
		b.WriteString(r[4].S)
	}
	out := make(map[int64]string, len(byObject))
	for id, b := range byObject {
		out[id] = b.String()
	}
	return out, nil
}

// eventCols is the shared layout of response events.
var eventCols = []string{"object_id", "pos", "kind", "tie", "text"}

// eventIter expands each input row into one or more event rows.
type eventIter struct {
	in      relstore.Iterator
	cols    []string
	make    func(relstore.Row) []relstore.Row
	pending []relstore.Row
}

func (e *eventIter) Columns() []string { return e.cols }

func (e *eventIter) Next() (relstore.Row, bool) {
	for {
		if len(e.pending) > 0 {
			r := e.pending[0]
			e.pending = e.pending[1:]
			return r, true
		}
		r, ok := e.in.Next()
		if !ok {
			return nil, false
		}
		e.pending = e.make(r)
	}
}

// Search evaluates a query and builds the tagged responses for every
// matching object — the full Figure 1 pipeline — against one pinned
// snapshot, so the evaluated IDs and the built documents are one
// consistent version even while writers commit concurrently.
func (c *Catalog) Search(q *Query) ([]Response, error) {
	tr, done := c.beginOp("search", c.obsv.opSearch)
	defer done()
	v := c.pinView()
	ids, err := v.evaluateTraced(q, tr)
	if err != nil {
		return nil, err
	}
	return v.buildResponseTraced(ids, tr)
}

// FetchDocument reconstructs one object's full document.
func (c *Catalog) FetchDocument(id int64) (*xmldoc.Node, error) {
	resp, err := c.pinView().buildResponseTraced([]int64{id}, nil)
	if err != nil {
		return nil, err
	}
	if len(resp) == 0 {
		return nil, fmt.Errorf("catalog: no object %d", id)
	}
	return xmldoc.ParseString(resp[0].XML)
}
