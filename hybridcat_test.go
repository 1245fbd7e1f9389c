package hybridcat_test

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat"
)

// TestPublicAPIQuickstart exercises the README quickstart through the
// public façade only.
func TestPublicAPIQuickstart(t *testing.T) {
	cat, err := hybridcat.OpenLEAD(hybridcat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := cat.RegisterAttr("grid", "ARPS", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"dx", "dz"} {
		if _, err := cat.RegisterElem(p, "ARPS", grid.ID, hybridcat.DTFloat, ""); err != nil {
			t.Fatal(err)
		}
	}
	stretch, err := cat.RegisterAttr("grid-stretching", "ARPS", grid.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"dzmin", "reference-height"} {
		if _, err := cat.RegisterElem(p, "ARPS", stretch.ID, hybridcat.DTFloat, ""); err != nil {
			t.Fatal(err)
		}
	}
	id, err := cat.IngestXML("alice", hybridcat.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	q := &hybridcat.Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", hybridcat.OpEq, hybridcat.Int(1000))
	sub := &hybridcat.AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	sub.AddElem("dzmin", "ARPS", hybridcat.OpEq, hybridcat.Int(100))
	g.AddSub(sub)
	resp, err := cat.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || resp[0].ObjectID != id {
		t.Fatalf("resp = %+v", resp)
	}
	doc, err := hybridcat.ParseXML(resp[0].XML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Tag != "LEADresource" {
		t.Errorf("root = %s", doc.Tag)
	}
}

func TestPublicAPIValueConstructorsAndOps(t *testing.T) {
	if hybridcat.Int(5).I != 5 || hybridcat.Float(2.5).F != 2.5 ||
		hybridcat.Str("x").S != "x" || hybridcat.Bool(true).I != 1 {
		t.Error("value constructors misbehaved")
	}
	ops := []hybridcat.CmpOp{hybridcat.OpEq, hybridcat.OpNe, hybridcat.OpLt,
		hybridcat.OpLe, hybridcat.OpGt, hybridcat.OpGe}
	if len(ops) != 6 {
		t.Error("operators missing")
	}
	if !hybridcat.OpLe.Holds(hybridcat.Int(1), hybridcat.Int(2)) {
		t.Error("OpLe wrong")
	}
}

func TestPublicAPISchemaDSLAndErrors(t *testing.T) {
	s, err := hybridcat.ParseSchemaDSL("mini", "root\n  a *\n  dyn !+")
	if err != nil {
		t.Fatal(err)
	}
	if s.AttributeByTag("a") == nil || s.AttributeByTag("dyn") == nil {
		t.Error("DSL attributes missing")
	}
	if _, err := hybridcat.ParseSchemaDSL("bad", "root\n  leaf"); err == nil {
		t.Error("rule-violating DSL should fail")
	}
	if hybridcat.LEADSchema().Root.Tag != "LEADresource" {
		t.Error("LEADSchema wrong")
	}
	// Unknown definition surfaces through the façade's error value.
	cat, _ := hybridcat.OpenLEAD(hybridcat.Options{})
	q := &hybridcat.Query{}
	q.Attr("never-registered", "X")
	if _, err := cat.Evaluate(q); !errors.Is(err, hybridcat.ErrUnknownDefinition) {
		t.Errorf("err = %v", err)
	}
}

func TestPublicAPIXPath(t *testing.T) {
	doc, err := hybridcat.ParseXML(hybridcat.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hybridcat.XPath("//attr[attrlabl='dx']")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Matches(doc) {
		t.Error("XPath should match Figure 3")
	}
	if _, err := hybridcat.XPath("not a path"); err == nil {
		t.Error("bad xpath should fail")
	}
}

func TestPublicAPIDynamicSpecAndDocument(t *testing.T) {
	if hybridcat.FGDCDynamicSpec.NameTag != "enttypl" {
		t.Error("FGDCDynamicSpec wrong")
	}
	doc, _ := hybridcat.ParseXML("<a><b>x</b></a>")
	if doc.ChildText("b") != "x" || !strings.Contains(doc.String(), "<b>x</b>") {
		t.Error("Document alias misbehaved")
	}
}

func TestPublicAPIXSDAndSnapshotWrappers(t *testing.T) {
	data, err := os.ReadFile("testdata/lead.xsd")
	if err != nil {
		t.Fatal(err)
	}
	s, err := hybridcat.ParseXSD("LEAD", string(data), "LEADresource")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := hybridcat.Open(s, hybridcat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := os.ReadFile("testdata/figure3-defs.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.LoadDefinitionsJSON(defs); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.IngestXML("u", hybridcat.Figure3Document); err != nil {
		t.Fatal(err)
	}
	qdata, err := os.ReadFile("testdata/worked-query.json")
	if err != nil {
		t.Fatal(err)
	}
	q, err := hybridcat.ParseQueryJSON(qdata)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cat.Evaluate(q)
	if err != nil || len(ids) != 1 {
		t.Fatalf("testdata worked query = %v, %v", ids, err)
	}
	// Snapshot wrappers.
	var buf bytes.Buffer
	if err := cat.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := hybridcat.LoadCatalog(s, hybridcat.Options{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ObjectCount() != 1 {
		t.Errorf("loaded objects = %d", loaded.ObjectCount())
	}
	// Marshal wrapper round trips.
	out, err := hybridcat.MarshalQueryJSON(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hybridcat.ParseQueryJSON(out); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICollectionsAndOntology(t *testing.T) {
	cat, err := hybridcat.OpenLEAD(hybridcat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := cat.IngestXML("alice", `<LEADresource><resourceID>r</resourceID><data><idinfo><keywords>
	  <theme><themekt>CF</themekt><themekey>air_temperature</themekey></theme>
	</keywords></idinfo></data></LEADresource>`)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := cat.CreateCollection("c", "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddToCollection(coll, id); err != nil {
		t.Fatal(err)
	}
	ont, err := hybridcat.ParseOntology(hybridcat.CFKeywords)
	if err != nil {
		t.Fatal(err)
	}
	q := &hybridcat.Query{}
	q.Attr("theme", "").AddElem("themekey", "", hybridcat.OpEq, hybridcat.Str("temperature"))
	ids, err := cat.EvaluateInContext(coll, hybridcat.ExpandQuery(ont, q))
	if err != nil || len(ids) != 1 {
		t.Fatalf("context+ontology = %v, %v", ids, err)
	}
	// NewOntology builder path.
	o2 := hybridcat.NewOntology()
	if err := o2.Add("root-term", ""); err != nil {
		t.Fatal(err)
	}
	if !o2.Has("root-term") {
		t.Error("NewOntology Add failed")
	}
	if infos := cat.Collections(); len(infos) != 1 || infos[0].Name != "c" {
		t.Errorf("collections = %+v", infos)
	}
}
