package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Response is one tagged XML document built for a query result.
type Response struct {
	ObjectID int64
	XML      string
	// doc is the built document this response came from, shared with
	// the response-cache entry so its JSON form is computed once per
	// epoch; nil on a Response constructed outside BuildResponse.
	doc *builtDoc
}

// AppendJSONString appends r.XML as a JSON string literal, quotes
// included, byte-identical to what encoding/json with SetEscapeHTML(false)
// writes for it. The escaped form of a built document is computed on
// first use and kept with it, so repeated replies carrying the same
// cached document escape it once.
func (r Response) AppendJSONString(dst []byte) []byte {
	return appendJSONString(dst, r.XML, r.doc)
}

// Ranked pairs the response with its rank score, keeping the memoized
// JSON form.
func (r Response) Ranked(score float64) RankedResponse {
	return RankedResponse{ObjectID: r.ObjectID, Score: score, XML: r.XML, doc: r.doc}
}

// builtDoc is one object's rebuilt document as the response cache holds
// it: the tagged XML, and its JSON string literal, filled on first wire
// use. Two readers racing to fill json compute identical bytes, so
// either store is correct.
type builtDoc struct {
	xml  string
	json atomic.Pointer[string]
}

// appendJSONString appends xml as a JSON string literal, through doc's
// memo when doc holds that same XML.
func appendJSONString(dst []byte, xml string, doc *builtDoc) []byte {
	if doc == nil || doc.xml != xml {
		return appendEscaped(dst, xml)
	}
	if p := doc.json.Load(); p != nil {
		return append(dst, *p...)
	}
	start := len(dst)
	dst = appendEscaped(dst, xml)
	lit := string(dst[start:])
	doc.json.Store(&lit)
	return dst
}

// appendEscaped appends s as encoding/json writes a string with HTML
// escaping off: the escape is encoding/json's own, so the bytes match it
// by construction (invalid UTF-8, U+2028 and U+2029 included).
func appendEscaped(dst []byte, s string) []byte {
	b := bytes.NewBuffer(dst)
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s) // a string always encodes
	out := b.Bytes()
	return out[:len(out)-1] // Encode ends every value with a newline
}

// BuildResponse reconstructs the schema-ordered XML documents for the
// given object IDs from their per-attribute CLOBs and the schema-level
// global ordering (§5): the concatenated result is already tagged, with
// no external tagger. Responses come back in the order of ids; unknown
// IDs are skipped. A CLOB row whose node order is not in the schema is
// an error.
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
	byObject := make(map[int64]*builtDoc, len(uniq))
	need := uniq
	if c.caches.response != nil {
		need = make([]int64, 0, len(uniq))
		for _, id := range uniq {
			if doc, ok := c.caches.response.Get(gen, id); ok {
				byObject[id] = doc
			} else {
				need = append(need, id)
			}
		}
		if tr != nil {
			tr.Annotate("response-cache hits=" + strconv.Itoa(len(uniq)-len(need)) + " misses=" + strconv.Itoa(len(need)))
		}
	}
	if len(need) > 0 {
		m, err := v.buildResponseChunk(need)
		if err != nil {
			return nil, err
		}
		for id, xml := range m {
			doc := &builtDoc{xml: xml}
			byObject[id] = doc
			c.caches.response.Put(gen, id, doc)
		}
	}
	var out []Response
	for _, id := range uniq {
		if doc, ok := byObject[id]; ok {
			out = append(out, Response{ObjectID: id, XML: doc.xml, doc: doc})
		}
	}
	end(int64(len(out)))
	return out, nil
}

// buildResponseChunk runs the §5 plan for one batch of object IDs
// against the pinned snapshot and returns each object's tagged XML.
//
// An object's CLOB rows come off clobs_by_object in (node_order,
// clob_seq) order, which is document order, so one merge with the
// schema-level global ordering tags them: before a CLOB at order n,
// close every open schema node whose last-child order is below n, then
// open n's remaining ancestors. The ancestor lists and last-child orders
// are the schema's own (the same relation node_ancestors and
// schema_nodes hold), so the merge needs no join and no sort.
func (v *view) buildResponseChunk(ids []int64) (map[int64]string, error) {
	clobT := v.tab(TClobs)
	schema := v.c.Schema
	out := make(map[int64]string, len(ids))
	var open []*xmlschema.Node
	for _, id := range ids {
		rowIDs, err := clobT.LookupRange("clobs_by_object", incl(relstore.Int(id)), incl(relstore.Int(id)))
		if err != nil {
			return nil, err
		}
		if len(rowIDs) == 0 {
			continue
		}
		var b strings.Builder
		open = open[:0]
		for _, rid := range rowIDs {
			r := clobT.Get(rid)
			order := int(r[1].I)
			if schema.NodeByOrder(order) == nil {
				return nil, fmt.Errorf("catalog: object %d: CLOB at node order %d, which is not in schema %s", id, order, schema.Name)
			}
			for len(open) > 0 && open[len(open)-1].LastChild < order {
				writeClose(&b, open[len(open)-1].Tag)
				open = open[:len(open)-1]
			}
			for _, a := range schema.Ancestors(order)[len(open):] {
				n := schema.NodeByOrder(a)
				b.WriteByte('<')
				b.WriteString(n.Tag)
				b.WriteByte('>')
				open = append(open, n)
			}
			b.WriteString(r[5].S)
		}
		for i := len(open) - 1; i >= 0; i-- {
			writeClose(&b, open[i].Tag)
		}
		out[id] = b.String()
	}
	return out, nil
}

func writeClose(b *strings.Builder, tag string) {
	b.WriteString("</")
	b.WriteString(tag)
	b.WriteByte('>')
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
