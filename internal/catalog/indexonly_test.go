package catalog_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// indexOnlyDoc is a Figure 3 variant: dx, the first theme's themekt,
// and, when lz >= 0, a third nesting level grid-stretching/level(lz).
func indexOnlyDoc(t *testing.T, dx, themekt string, lz int) *xmldoc.Node {
	t.Helper()
	s := strings.Replace(xmlschema.Figure3Document, "<attrv>1000.000</attrv>", "<attrv>"+dx+"</attrv>", 1)
	s = strings.Replace(s, "<themekt>CF NetCDF</themekt>", "<themekt>"+themekt+"</themekt>", 1)
	if lz >= 0 {
		s = strings.Replace(s, "<attrlabl>grid-stretching</attrlabl>", fmt.Sprintf(
			"<attrlabl>grid-stretching</attrlabl><attr><attrlabl>level</attrlabl><attrdefs>ARPS</attrdefs>"+
				"<attr><attrlabl>lz</attrlabl><attrdefs>ARPS</attrdefs><attrv>%d</attrv></attr></attr>", lz), 1)
	}
	doc, err := xmldoc.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// sumMetric totals one counter family across its table labels.
func sumMetric(reg *obs.Registry, family string) float64 {
	total := 0.0
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, family) {
			total += v
		}
	}
	return total
}

// lookupBudget is the most index lookups an index-only evaluation of q
// may make: one per probe key range (an Ne is two, a OneOf one per
// value, a criterion without elements one scan-all), one per rollup
// child, and two for an owner's visible set.
func lookupBudget(q *catalog.Query) int {
	n := 0
	if q.Owner != "" {
		n += 2
	}
	var walk func(a *catalog.AttrCriteria)
	walk = func(a *catalog.AttrCriteria) {
		if len(a.Elems) == 0 {
			n++
		}
		for _, e := range a.Elems {
			switch {
			case len(e.OneOf) > 0:
				n += len(e.OneOf)
			case e.Op == relstore.OpNe:
				n += 2
			default:
				n++
			}
		}
		n += len(a.Subs)
		for _, s := range a.Subs {
			walk(s)
		}
	}
	for _, a := range q.Attrs {
		walk(a)
	}
	return n
}

// TestFigure4ReadsNoRows runs a query mix — point and range predicates
// on numbers and strings, Ne, OneOf, a depth-2 rollup and scan-all
// criteria, for the superuser and for owners — and requires every
// evaluation to read no row (probes, rollups and visibility come off
// index keys), to stay within its index-lookup budget, and to answer
// what the DOM model and §1 visibility say.
func TestFigure4ReadsNoRows(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{Metrics: reg, CacheSize: -1})
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
	stretch := register("grid-stretching", register("grid", 0, "dx", "dy", "dz"), "dzmin", "reference-height")
	register("level", stretch, "lz")

	owners := []string{"scientist", "alice", "bob"}
	var docs []*xmldoc.Node
	visibleTo := map[string][]bool{}
	for i, dx := range []string{"500", "1000", "2000", "4000", "1000", "2000", "-0", "3000"} {
		themekt := []string{"CF NetCDF", "GCMD", "AAA"}[i%3]
		doc := indexOnlyDoc(t, dx, themekt, i%4-1)
		owner := owners[i%len(owners)]
		id, err := c.Ingest(owner, doc)
		if err != nil {
			t.Fatal(err)
		}
		published := i%3 == 2
		if published {
			if err := c.SetPublished(id, true); err != nil {
				t.Fatal(err)
			}
		}
		docs = append(docs, doc)
		for _, o := range append(owners, "carol") {
			visibleTo[o] = append(visibleTo[o], published || o == owner)
		}
	}

	var mix []*catalog.Query
	for _, op := range []relstore.CmpOp{relstore.OpEq, relstore.OpNe, relstore.OpLt, relstore.OpLe, relstore.OpGt, relstore.OpGe} {
		for _, v := range []relstore.Value{relstore.Int(2000), relstore.Float(0), relstore.Str("1000.000")} {
			q := &catalog.Query{}
			q.Attr("grid", "ARPS").AddElem("dx", "ARPS", op, v)
			mix = append(mix, q)
		}
		q := &catalog.Query{}
		q.Attr("theme", "").AddElem("themekt", "", op, relstore.Str("CF NetCDF"))
		mix = append(mix, q)
		// A number against text that is not numeric matches nothing.
		q = &catalog.Query{}
		q.Attr("theme", "").AddElem("themekey", "", op, relstore.Int(5))
		mix = append(mix, q)
	}
	oneOf := &catalog.Query{}
	oneOf.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("x")).Elems[0].OneOf =
		[]relstore.Value{relstore.Str("GCMD"), relstore.Str("AAA"), relstore.Str("none")}
	mix = append(mix, oneOf)
	for _, lz := range []int64{0, 1, 2} {
		// Depth-2 rollup: grid ⊃ grid-stretching ⊃ level(lz), beside a
		// second top-level criterion.
		q := &catalog.Query{}
		level := &catalog.AttrCriteria{Name: "level", Source: "ARPS"}
		level.AddElem("lz", "ARPS", relstore.OpEq, relstore.Int(lz))
		q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpGe, relstore.Int(500)).
			AddSub((&catalog.AttrCriteria{Name: "grid-stretching", Source: "ARPS"}).AddSub(level))
		q.Attr("theme", "").AddElem("themekt", "", relstore.OpNe, relstore.Str("GCMD"))
		mix = append(mix, q)
	}
	scanAll := &catalog.Query{}
	scanAll.Attr("grid", "ARPS").AddSub(&catalog.AttrCriteria{Name: "grid-stretching", Source: "ARPS"})
	mix = append(mix, scanAll)

	matched, narrowed := 0, 0
	for i, base := range mix {
		for _, owner := range []string{"", "alice", "carol"} {
			q := *base
			q.Owner = owner
			readsBefore := sumMetric(reg, "relstore_row_reads_total")
			lookupsBefore := sumMetric(reg, "relstore_index_lookups_total")
			got, err := c.Evaluate(&q)
			if err != nil {
				t.Fatalf("query %d owner %q: %v", i, owner, err)
			}
			if reads := sumMetric(reg, "relstore_row_reads_total") - readsBefore; reads != 0 {
				t.Errorf("query %d owner %q: Evaluate read %v rows", i, owner, reads)
			}
			lookups := sumMetric(reg, "relstore_index_lookups_total") - lookupsBefore
			if budget := lookupBudget(&q); lookups > float64(budget) {
				t.Errorf("query %d owner %q: %v index lookups, budget %d", i, owner, lookups, budget)
			}
			var want []int64
			for _, id := range domIDs(c.Schema, docs, &q) {
				if owner == "" || visibleTo[owner][id-1] {
					want = append(want, id)
				}
			}
			if !equalIDs(got, want) {
				t.Errorf("query %d owner %q: catalog %v != DOM model %v", i, owner, got, want)
			}
			if len(want) > 0 {
				matched++
			}
			if owner != "" && len(want) < len(domIDs(c.Schema, docs, &q)) {
				narrowed++
			}
		}
	}
	if matched < len(mix) || narrowed < len(mix)/2 {
		t.Fatalf("weak mix: %d non-empty answers, %d narrowed by visibility, over %d queries",
			matched, narrowed, len(mix))
	}
}
