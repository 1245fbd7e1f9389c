package catalog_test

import (
	"testing"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// domIDs is the DOM oracle: the 1-based positions of the documents
// baseline.DocMatches admits, i.e. the object IDs a catalog that
// ingested docs in order (as the superuser sees them) must return.
func domIDs(schema *xmlschema.Schema, docs []*xmldoc.Node, q *catalog.Query) []int64 {
	var ids []int64
	for i, d := range docs {
		if baseline.DocMatches(schema, d, q) {
			ids = append(ids, int64(i+1))
		}
	}
	return ids
}

// fig3Catalog opens a LEAD catalog with the ARPS grid definitions
// registered and ingests the Figure 3 document plus dx variants, so
// range and inequality predicates discriminate. It returns the catalog
// and the documents in object-ID order.
func fig3Catalog(t *testing.T) (*catalog.Catalog, []*xmldoc.Node) {
	t.Helper()
	schema := xmlschema.MustLEAD()
	c, err := catalog.Open(schema, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	register := func(attr string, parent int64, elems ...string) int64 {
		def, err := c.RegisterAttr(attr, "ARPS", parent, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range elems {
			if _, err := c.RegisterElem(e, "ARPS", def.ID, core.DTFloat, ""); err != nil {
				t.Fatal(err)
			}
		}
		return def.ID
	}
	grid := register("grid", 0, "dx", "dy", "dz")
	register("grid-stretching", grid, "dzmin", "reference-height")

	var docs []*xmldoc.Node
	for _, dx := range []string{"", "500", "1000", "2000", "4000"} {
		doc, err := xmldoc.ParseString(xmlschema.Figure3Document)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range doc.FindAll("attr") {
			if dx != "" && a.ChildText("attrlabl") == "dx" {
				a.Child("attrv").Text = dx
			}
		}
		if _, err := c.Ingest("scientist", doc); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return c, docs
}

// requireDOM evaluates every query and requires the catalog's IDs to
// equal the DOM oracle's, returning how many queries matched anything.
func requireDOM(t *testing.T, c *catalog.Catalog, docs []*xmldoc.Node, queries []*catalog.Query) int {
	t.Helper()
	some := 0
	for i, q := range queries {
		got, err := c.Evaluate(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := domIDs(c.Schema, docs, q)
		if !equalIDs(got, want) {
			t.Errorf("query %d: catalog %v != DOM oracle %v", i, got, want)
		}
		if len(want) > 0 {
			some++
		}
	}
	return some
}

// nestedQuery is grid(dx op v) containing grid-stretching(dzmin = dzmin).
func nestedQuery(op relstore.CmpOp, v relstore.Value, dzmin int64) *catalog.Query {
	q := &catalog.Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", op, v)
	sub := &catalog.AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	sub.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(dzmin))
	g.AddSub(sub)
	return q
}

// TestBitmapMatchesDOMOperators sweeps every comparison operator,
// numeric and string values, OneOf expansion, and the nested rollup,
// asserting the Figure-4 pipeline returns exactly the object IDs the DOM
// oracle admits.
func TestBitmapMatchesDOMOperators(t *testing.T) {
	c, docs := fig3Catalog(t)

	dxQ := func(op relstore.CmpOp, v relstore.Value) *catalog.Query {
		q := &catalog.Query{}
		q.Attr("grid", "ARPS").AddElem("dx", "ARPS", op, v)
		return q
	}
	var queries []*catalog.Query
	for _, op := range []relstore.CmpOp{relstore.OpEq, relstore.OpNe, relstore.OpLt, relstore.OpLe, relstore.OpGt, relstore.OpGe} {
		queries = append(queries,
			dxQ(op, relstore.Int(1000)),
			dxQ(op, relstore.Float(2000)),
			dxQ(op, relstore.Int(-5)), // matches all (Ne/Gt/Ge) or none (Eq/Lt/Le)
		)
		// String comparisons probe the sval index.
		sq := &catalog.Query{}
		sq.Attr("theme", "").AddElem("themekt", "", op, relstore.Str("CF NetCDF"))
		queries = append(queries, sq)
	}
	// OneOf over mixed hit/miss values.
	oq := &catalog.Query{}
	oq.Attr("theme", "").AddElem("themekey", "", relstore.OpEq, relstore.Str("x")).
		Elems[0].OneOf = []relstore.Value{
		relstore.Str("convective_precipitation_amount"),
		relstore.Str("no_such_keyword"),
	}
	queries = append(queries, oq)
	// Nested containment rollup plus a second top-level criterion.
	nq := nestedQuery(relstore.OpGe, relstore.Int(1000), 100)
	nq.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("CF NetCDF"))
	queries = append(queries, nq)
	// No-element criterion: every instance of the definition.
	eq := &catalog.Query{}
	eq.Attr("grid", "ARPS")
	queries = append(queries, eq)

	if some := requireDOM(t, c, docs, queries); some < len(queries)/3 {
		t.Fatalf("only %d/%d operator queries matched anything", some, len(queries))
	}
}
