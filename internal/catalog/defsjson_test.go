package catalog

import (
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

const fig3Defs = `[
  {"kind":"attribute","name":"grid","source":"ARPS"},
  {"kind":"attribute","name":"grid-stretching","source":"ARPS","parent":"grid"},
  {"kind":"element","name":"dx","source":"ARPS","parent":"grid","type":"float"},
  {"kind":"element","name":"dz","source":"ARPS","parent":"grid","type":"float"},
  {"kind":"element","name":"dzmin","source":"ARPS","parent":"grid-stretching","type":"float"},
  {"kind":"element","name":"reference-height","source":"ARPS","parent":"grid-stretching","type":"float"}
]`

func TestLoadDefinitionsJSON(t *testing.T) {
	c, err := Open(xmlschema.MustLEAD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadDefinitionsJSON([]byte(fig3Defs)); err != nil {
		t.Fatal(err)
	}
	// The loaded definitions support the worked query end to end.
	if _, err := c.IngestXML("u", xmlschema.Figure3Document); err != nil {
		t.Fatal(err)
	}
	q := &Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	sub := &AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	sub.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(100))
	g.AddSub(sub)
	ids, err := c.Evaluate(q)
	if err != nil || len(ids) != 1 {
		t.Fatalf("query = %v, %v", ids, err)
	}
}

func TestDefinitionsJSONRoundTrip(t *testing.T) {
	c, err := Open(xmlschema.MustLEAD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadDefinitionsJSON([]byte(fig3Defs)); err != nil {
		t.Fatal(err)
	}
	dump, err := c.DumpDefinitionsJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The dump loads into a fresh catalog and dumps identically.
	c2, _ := Open(xmlschema.MustLEAD(), Options{})
	if err := c2.LoadDefinitionsJSON(dump); err != nil {
		t.Fatal(err)
	}
	dump2, _ := c2.DumpDefinitionsJSON()
	if string(dump) != string(dump2) {
		t.Errorf("round trip differs:\n%s\nvs\n%s", dump, dump2)
	}
	// Structural definitions are not dumped.
	if strings.Contains(string(dump), `"theme"`) {
		t.Error("dump should carry dynamic definitions only")
	}
}

func TestLoadDefinitionsJSONErrors(t *testing.T) {
	c, _ := Open(xmlschema.MustLEAD(), Options{})
	bad := []string{
		`not json`,
		`[{"kind":"mystery","name":"x"}]`,
		`[{"kind":"attribute","name":"a","parent":"ghost"}]`,
		`[{"kind":"element","name":"e","parent":"ghost","type":"int"}]`,
		`[{"kind":"attribute","name":"a","source":"s"},
		  {"kind":"element","name":"e","parent":"a","type":"complex128"}]`,
	}
	for _, s := range bad {
		if err := c.LoadDefinitionsJSON([]byte(s)); err == nil {
			t.Errorf("LoadDefinitionsJSON(%s) should fail", s)
		}
	}
}
