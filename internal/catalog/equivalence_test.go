// The equivalence suite lives in an external test package so it can use
// the baseline package's DOM oracle (baseline imports catalog, so an
// internal test would cycle).
package catalog_test

import (
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// TestBitmapRowOracleEquivalence proves the set representation changes
// no results: for 200 seeded workload queries — point, range, nested,
// structural theme, multi-criteria, and ontology-expanded OneOf — a
// catalog on the default bitmap posting-list pipeline, a catalog forced
// onto the row-at-a-time oracle path (DisableBitmaps), and the DOM
// oracle must agree exactly, and containment-scoped context queries
// must agree as well.
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
	bm := open(catalog.Options{})
	// Row-at-a-time oracle path: bitmaps off, volcano iterators between
	// the Figure-4 stages.
	rows := open(catalog.Options{DisableBitmaps: true})

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

	oracle := func(q *catalog.Query) []int64 {
		var ids []int64
		for i, d := range corpus {
			if baseline.DocMatches(g.Schema, d, q) {
				ids = append(ids, int64(i+1))
			}
		}
		return ids
	}

	nonEmpty := 0
	for _, tc := range cases {
		want := oracle(tc.q)
		bids, err := bm.Evaluate(tc.q)
		if err != nil {
			t.Fatalf("%s: bitmap evaluate: %v", tc.name, err)
		}
		rids, err := rows.Evaluate(tc.q)
		if err != nil {
			t.Fatalf("%s: row-path evaluate: %v", tc.name, err)
		}
		if !equalIDs(bids, rids) {
			t.Errorf("%s: bitmap %v != row path %v", tc.name, bids, rids)
		}
		if !equalIDs(bids, want) {
			t.Errorf("%s: catalog %v != DOM oracle %v", tc.name, bids, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(cases)/4 {
		t.Fatalf("only %d/%d queries matched anything — workload too sparse to prove equivalence", nonEmpty, len(cases))
	}

	// Search must agree too: evaluation plus the §5 response build must
	// produce identical XML under both strategies.
	for _, tc := range cases[:24] {
		bresp, err := bm.Search(tc.q)
		if err != nil {
			t.Fatalf("%s: bitmap search: %v", tc.name, err)
		}
		rresp, err := rows.Search(tc.q)
		if err != nil {
			t.Fatalf("%s: row-path search: %v", tc.name, err)
		}
		if len(bresp) != len(rresp) {
			t.Fatalf("%s: search sizes diverge: %d vs %d", tc.name, len(bresp), len(rresp))
		}
		for i := range bresp {
			if bresp[i].ObjectID != rresp[i].ObjectID || bresp[i].XML != rresp[i].XML {
				t.Errorf("%s: search response %d diverges between bitmap and row path", tc.name, i)
			}
		}
	}

	// Containment scope: identical collection trees on both catalogs,
	// then context-scoped evaluation must equal oracle ∩ scope.
	scope := map[int64]bool{}
	var rootID int64
	for _, c := range []*catalog.Catalog{bm, rows} {
		root, err := c.CreateCollection("experiment", "lab", 0)
		if err != nil {
			t.Fatal(err)
		}
		child, err := c.CreateCollection("run-1", "lab", root)
		if err != nil {
			t.Fatal(err)
		}
		rootID = root
		for i := range corpus {
			id := int64(i + 1)
			switch {
			case i%3 == 0:
				if err := c.AddToCollection(root, id); err != nil {
					t.Fatal(err)
				}
				scope[id] = true
			case i%3 == 1:
				if err := c.AddToCollection(child, id); err != nil {
					t.Fatal(err)
				}
				scope[id] = true
			}
		}
	}
	for _, tc := range cases[:48] {
		var scopedWant []int64
		for _, id := range oracle(tc.q) {
			if scope[id] {
				scopedWant = append(scopedWant, id)
			}
		}
		bids, err := bm.EvaluateInContext(rootID, tc.q)
		if err != nil {
			t.Fatalf("%s: bitmap context evaluate: %v", tc.name, err)
		}
		rids, err := rows.EvaluateInContext(rootID, tc.q)
		if err != nil {
			t.Fatalf("%s: row-path context evaluate: %v", tc.name, err)
		}
		if !equalIDs(bids, rids) {
			t.Errorf("%s: scoped bitmap %v != row path %v", tc.name, bids, rids)
		}
		if !equalIDs(bids, scopedWant) {
			t.Errorf("%s: scoped catalog %v != oracle∩scope %v", tc.name, bids, scopedWant)
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
