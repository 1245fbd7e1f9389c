package catalog

import (
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/relstore"
)

func TestExplainQueryTracesPipeline(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	if _, err := c.IngestXML("scientist", fig3Variant(t, "2000")); err != nil {
		t.Fatal(err)
	}
	q := &Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	st := &AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	st.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(100))
	g.AddSub(st)

	lines, err := c.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"2 criteria node(s), 1 top-level (sorted key-list set ops)",
		`dynamic attribute "grid"`,
		`dynamic attribute "grid-stretching"`,
		"-> 1 directly satisfied instance(s)",
		"-> 2 directly satisfied instance(s)",
		"containment rollup over 1 child criterion(s): 1 -> 1 instance(s)",
		"top node 1: 1 candidate object(s)",
		"objects satisfying all 1 top-level criteria",
		": 1", // final match count
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("explain missing %q:\n%s", want, joined)
		}
	}
	// The explain result agrees with Evaluate.
	ids, err := c.Evaluate(q)
	if err != nil || len(ids) != 1 {
		t.Fatalf("evaluate = %v, %v", ids, err)
	}

	// Errors propagate.
	if _, err := c.ExplainQuery(&Query{}); err == nil {
		t.Error("empty query should fail")
	}
	bad := &Query{}
	bad.Attr("nope", "X")
	if _, err := c.ExplainQuery(bad); err == nil {
		t.Error("unknown definition should fail")
	}
}

func TestExplainQueryRespectsVisibility(t *testing.T) {
	c, _, _ := privacyFixture(t)
	lines, err := c.ExplainQuery(dxQuery("carol"))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, `(visible to "carol"): 0`) {
		t.Errorf("explain should report visibility filtering:\n%s", joined)
	}
}
