// The equivalence suite lives in an external test package so it can use
// the baseline package's DOM oracle (baseline imports catalog, so an
// internal test would cycle).
package catalog_test

import (
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// TestBitmapRowOracleEquivalence judges the bitmap pipeline against the
// DOM oracle on a generated workload: for 200 seeded queries — point,
// range, nested, structural theme, multi-criteria, and
// ontology-expanded OneOf — the catalog must return exactly the objects
// baseline.DocMatches admits; Search must return the same IDs with each
// reply's XML equal to FetchDocument's; and containment-scoped context
// queries must return oracle ∩ scope.
func TestBitmapRowOracleEquivalence(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 120
	g := workload.New(cfg)
	corpus := g.Corpus()

	open := func(opts catalog.Options) *catalog.Catalog {
		t.Helper()
		c, err := catalog.Open(g.Schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RegisterDefinitions(c); err != nil {
			t.Fatal(err)
		}
		for i, d := range corpus {
			id, err := c.Ingest("lab", d)
			if err != nil {
				t.Fatalf("doc %d: %v", i, err)
			}
			if id != int64(i+1) {
				t.Fatalf("doc %d got object ID %d", i, id)
			}
		}
		return c
	}
	c := open(catalog.Options{})

	ont, err := ontology.Parse(ontology.CFKeywords)
	if err != nil {
		t.Fatal(err)
	}
	broadTerms := []string{"precipitation", "pressure", "wind", "temperature"}

	type testCase struct {
		name string
		q    *catalog.Query
	}
	var cases []testCase
	for i := 0; len(cases) < 200; i++ {
		switch i % 6 {
		case 0:
			cases = append(cases, testCase{fmt.Sprintf("point-%d", i), g.PointQuery(i, i, i)})
		case 1:
			frac := 0.2 + float64(i%4)*0.2
			cases = append(cases, testCase{fmt.Sprintf("range-%d", i), g.RangeQuery(i, i+1, frac)})
		case 2:
			cases = append(cases, testCase{fmt.Sprintf("nested-%d", i), g.NestedQuery(i, i, 1+i%2)})
		case 3:
			cases = append(cases, testCase{fmt.Sprintf("theme-%d", i), g.ThemeQuery(i)})
		case 4:
			cases = append(cases, testCase{fmt.Sprintf("multi-%d", i), g.MultiQuery(i, 2+i%2)})
		case 5:
			// Equality on a broad term, widened by the ontology into a
			// OneOf over its narrower closure.
			q := &catalog.Query{}
			q.Attr("theme", "").AddElem("themekey", "", relstore.OpEq,
				relstore.Str(broadTerms[i%len(broadTerms)]))
			expanded := ontology.Expand(ont, q)
			if len(expanded.Attrs[0].Elems[0].OneOf) == 0 {
				t.Fatalf("case %d: ontology expansion produced no OneOf", i)
			}
			cases = append(cases, testCase{fmt.Sprintf("oneof-%d", i), expanded})
		}
	}

	nonEmpty := 0
	for _, tc := range cases {
		want := domIDs(g.Schema, corpus, tc.q)
		ids, err := c.Evaluate(tc.q)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", tc.name, err)
		}
		if !equalIDs(ids, want) {
			t.Errorf("%s: catalog %v != DOM oracle %v", tc.name, ids, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(cases)/4 {
		t.Fatalf("only %d/%d queries matched anything — workload too sparse to prove equivalence", nonEmpty, len(cases))
	}

	// Search: evaluation plus the §5 response build, over one pinned
	// snapshot, must answer the oracle's objects with the documents a
	// plain fetch rebuilds.
	for _, tc := range cases[:24] {
		resp, err := c.Search(tc.q)
		if err != nil {
			t.Fatalf("%s: search: %v", tc.name, err)
		}
		ids := make([]int64, len(resp))
		for i, r := range resp {
			ids[i] = r.ObjectID
			doc, err := c.FetchDocument(r.ObjectID)
			if err != nil {
				t.Fatalf("%s: fetch %d: %v", tc.name, r.ObjectID, err)
			}
			got, err := xmldoc.ParseString(r.XML)
			if err != nil {
				t.Fatalf("%s: search reply %d: %v", tc.name, i, err)
			}
			if got.String() != doc.String() {
				t.Errorf("%s: search reply for object %d differs from FetchDocument", tc.name, r.ObjectID)
			}
		}
		if want := domIDs(g.Schema, corpus, tc.q); !equalIDs(ids, want) {
			t.Errorf("%s: search IDs %v != DOM oracle %v", tc.name, ids, want)
		}
	}

	// Containment scope: context-scoped evaluation must equal
	// oracle ∩ scope.
	scope := map[int64]bool{}
	root, err := c.CreateCollection("experiment", "lab", 0)
	if err != nil {
		t.Fatal(err)
	}
	child, err := c.CreateCollection("run-1", "lab", root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus {
		id := int64(i + 1)
		switch i % 3 {
		case 0:
			if err := c.AddToCollection(root, id); err != nil {
				t.Fatal(err)
			}
			scope[id] = true
		case 1:
			if err := c.AddToCollection(child, id); err != nil {
				t.Fatal(err)
			}
			scope[id] = true
		}
	}
	for _, tc := range cases[:48] {
		var scopedWant []int64
		for _, id := range domIDs(g.Schema, corpus, tc.q) {
			if scope[id] {
				scopedWant = append(scopedWant, id)
			}
		}
		ids, err := c.EvaluateInContext(root, tc.q)
		if err != nil {
			t.Fatalf("%s: context evaluate: %v", tc.name, err)
		}
		if !equalIDs(ids, scopedWant) {
			t.Errorf("%s: scoped catalog %v != oracle∩scope %v", tc.name, ids, scopedWant)
		}
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
