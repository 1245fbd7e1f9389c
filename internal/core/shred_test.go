package core

import (
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// newFig3Shredder builds a shredder over the LEAD schema with the
// Figure 3 dynamic definitions registered (grid/ARPS with dx, dz and the
// grid-stretching sub-attribute with dzmin, reference-height).
func newFig3Shredder(t *testing.T) (*Shredder, *Defs) {
	t.Helper()
	schema := xmlschema.MustLEAD()
	reg, err := NewDefs(schema)
	if err != nil {
		t.Fatal(err)
	}
	detailed := schema.AttributeByTag("detailed")
	grid, err := reg.RegisterAttr("grid", "ARPS", 0, detailed.Order, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"dx", "dz"} {
		if _, err := reg.RegisterElem(e, "ARPS", grid.ID, DTFloat, ""); err != nil {
			t.Fatal(err)
		}
	}
	gs, err := reg.RegisterAttr("grid-stretching", "ARPS", grid.ID, detailed.Order, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"dzmin", "reference-height"} {
		if _, err := reg.RegisterElem(e, "ARPS", gs.ID, DTFloat, ""); err != nil {
			t.Fatal(err)
		}
	}
	return NewShredder(schema, writable(reg)), reg
}

func fig3Doc(t *testing.T) *xmldoc.Node {
	t.Helper()
	doc, err := xmldoc.ParseString(xmlschema.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestFigure3Shred pins the paper's worked shredding example: the two
// theme attributes become CLOBs at the theme node order with sequence 1
// and 2, the detailed element resolves to the dynamic grid/ARPS
// definition, dx and dz shred as its elements, and grid-stretching
// becomes a sub-attribute whose inverted list links it to grid.
func TestFigure3Shred(t *testing.T) {
	s, reg := newFig3Shredder(t)
	res, err := s.Shred(fig3Doc(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("skipped = %+v", res.Skipped)
	}

	// CLOBs: resourceID, theme x2, detailed.
	if len(res.Clobs) != 4 {
		t.Fatalf("clobs = %d, want 4", len(res.Clobs))
	}
	themeOrder := s.Schema.AttributeByTag("theme").Order
	var themeClobs []ClobRec
	for _, c := range res.Clobs {
		if c.NodeOrder == themeOrder {
			themeClobs = append(themeClobs, c)
		}
	}
	if len(themeClobs) != 2 || themeClobs[0].ClobSeq != 1 || themeClobs[1].ClobSeq != 2 {
		t.Fatalf("theme clobs = %+v", themeClobs)
	}
	if !strings.Contains(themeClobs[0].XML, "convective_precipitation_amount") {
		t.Error("first theme CLOB content wrong")
	}
	if !strings.Contains(themeClobs[1].XML, "air_pressure_at_cloud_base") {
		t.Error("second theme CLOB content wrong")
	}

	// Attribute instances: resourceID, theme x2, grid, grid-stretching.
	grid := reg.LookupAttr("grid", "ARPS", 0, "")
	gs := reg.LookupAttr("grid-stretching", "ARPS", grid.ID, "")
	theme := reg.LookupAttr("theme", "", 0, "")
	counts := map[int64]int{}
	for _, a := range res.Attrs {
		counts[a.AttrID]++
	}
	if counts[theme.ID] != 2 || counts[grid.ID] != 1 || counts[gs.ID] != 1 {
		t.Fatalf("attr counts = %v", counts)
	}

	// The detailed CLOB carries the resolved dynamic attribute identity.
	detailedOrder := s.Schema.AttributeByTag("detailed").Order
	for _, c := range res.Clobs {
		if c.NodeOrder == detailedOrder && c.AttrID != grid.ID {
			t.Errorf("detailed CLOB attr = %d, want grid %d", c.AttrID, grid.ID)
		}
	}

	// Elements: themekt+2 themekey per theme instance; dx, dz on grid;
	// dzmin, reference-height on grid-stretching.
	elems := map[string][]ElemRec{}
	for _, e := range res.Elems {
		def := reg.ElemByID(e.ElemID)
		elems[def.Name] = append(elems[def.Name], e)
	}
	if len(elems["themekt"]) != 2 || len(elems["themekey"]) != 4 {
		t.Fatalf("theme elems: kt=%d key=%d", len(elems["themekt"]), len(elems["themekey"]))
	}
	if len(elems["dx"]) != 1 || elems["dx"][0].Value != "1000.000" || elems["dx"][0].Num != 1000 {
		t.Fatalf("dx = %+v", elems["dx"])
	}
	if elems["dx"][0].AttrID != grid.ID {
		t.Error("dx should be owned by the grid instance")
	}
	if len(elems["dzmin"]) != 1 || elems["dzmin"][0].AttrID != gs.ID || elems["dzmin"][0].Num != 100 {
		t.Fatalf("dzmin = %+v", elems["dzmin"])
	}
	// Element sequence: within the first theme instance, themekt=1 then
	// themekey 2,3.
	first := elems["themekt"][0]
	if first.ElemSeq != 1 {
		t.Errorf("themekt seq = %d", first.ElemSeq)
	}
	var keySeqs []int
	for _, e := range elems["themekey"] {
		if e.AttrSeq == first.AttrSeq {
			keySeqs = append(keySeqs, e.ElemSeq)
		}
	}
	if len(keySeqs) != 2 || keySeqs[0] != 2 || keySeqs[1] != 3 {
		t.Errorf("themekey seqs = %v", keySeqs)
	}

	// Inverted list: grid-stretching instance linked to grid at depth 1.
	if len(res.SubAttrs) != 1 {
		t.Fatalf("sub attrs = %+v", res.SubAttrs)
	}
	sa := res.SubAttrs[0]
	if sa.ChildAttrID != gs.ID || sa.AncAttrID != grid.ID || sa.Depth != 1 {
		t.Errorf("sub attr link = %+v", sa)
	}
}

func TestShredUnknownDynamicAttrSkipped(t *testing.T) {
	s, _ := newFig3Shredder(t)
	doc := fig3Doc(t)
	// Rename the entity so it matches no definition.
	entity := doc.FindAll("enttypl")[0]
	entity.Text = "unknown-model"
	res, err := s.Shred(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The CLOB is still stored (paper: retained but not shredded) with no
	// attribute identity.
	detailedOrder := s.Schema.AttributeByTag("detailed").Order
	found := false
	for _, c := range res.Clobs {
		if c.NodeOrder == detailedOrder {
			found = true
			if c.AttrID != 0 {
				t.Error("unmatched dynamic CLOB should carry no attr id")
			}
		}
	}
	if !found {
		t.Fatal("detailed CLOB missing")
	}
	if len(res.Skipped) != 1 || res.Skipped[0].Name != "unknown-model" {
		t.Errorf("skipped = %+v", res.Skipped)
	}
	// No grid rows were shredded.
	for _, e := range res.Elems {
		if e.Value == "1000.000" {
			t.Error("unmatched dynamic attribute must not shred elements")
		}
	}
}

// TestShredAutoRegister: auto-registration writes into the registry's
// private copy, never into the version the shred started from, resolves
// the rest of the document against the copy, and reports what it added
// in registration order; a read-only registry refuses it.
func TestShredAutoRegister(t *testing.T) {
	s, base := newFig3Shredder(t)
	var draft *Defs
	s.Reg = NewRegistry(func() *Defs {
		if draft != nil {
			return draft
		}
		return base
	}, func() *Defs {
		if draft == nil {
			draft = base.Clone()
		}
		return draft
	})
	doc := fig3Doc(t)
	doc.FindAll("enttypl")[0].Text = "fresh-model"
	res, err := s.Shred(doc, Options{AutoRegister: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("skipped = %+v", res.Skipped)
	}
	if base.LookupAttr("fresh-model", "ARPS", 0, "") != nil {
		t.Fatal("auto-registration wrote into the version the shred started from")
	}
	def := draft.LookupAttr("fresh-model", "ARPS", 0, "")
	if def == nil || !def.Dynamic {
		t.Fatal("auto-registration should create the definition")
	}
	// Elements and the sub-attribute were registered too.
	dx := draft.LookupElem("dx", "ARPS", def.ID, "")
	if dx == nil {
		t.Fatal("dx should be auto-registered")
	}
	gs := draft.LookupAttr("grid-stretching", "ARPS", def.ID, "")
	if gs == nil {
		t.Fatal("grid-stretching should be auto-registered")
	}
	if len(res.NewAttrs) != 2 || res.NewAttrs[0] != def || res.NewAttrs[1] != gs {
		t.Errorf("NewAttrs = %+v, want fresh-model then grid-stretching", res.NewAttrs)
	}
	var names []string
	for _, e := range res.NewElems {
		names = append(names, e.Name)
	}
	if got := strings.Join(names, " "); got != "dzmin reference-height dx dz" || res.NewElems[2] != dx {
		t.Errorf("NewElems = %s, want the document order dzmin reference-height dx dz", got)
	}

	s.Reg = NewRegistry(func() *Defs { return base }, nil)
	if _, err := s.Shred(doc, Options{AutoRegister: true}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("auto-registering through a read-only registry: err = %v", err)
	}
}

func TestShredValidationFailures(t *testing.T) {
	s, _ := newFig3Shredder(t)

	// Wrong root.
	if _, err := s.Shred(xmldoc.NewNode("wrong"), Options{}); err == nil {
		t.Error("wrong root should fail")
	}

	// Type violation: dx declared float, value not numeric.
	doc := fig3Doc(t)
	for _, a := range doc.FindAll("attr") {
		if a.ChildText("attrlabl") == "dx" {
			a.Child("attrv").Text = "not-a-number"
		}
	}
	_, err := s.Shred(doc, Options{})
	var verr *ValidationError
	if err == nil {
		t.Fatal("type violation should fail")
	}
	if !strings.Contains(err.Error(), "not-a-number") {
		t.Errorf("err = %v", err)
	}
	if ok := errorsAs(err, &verr); !ok || len(verr.Problems) == 0 {
		t.Errorf("expected ValidationError, got %T", err)
	}

	// Unknown structural tag fails strict, passes lenient.
	doc = fig3Doc(t)
	doc.Child("data").Append(xmldoc.NewLeaf("bogus", "x"))
	if _, err := s.Shred(doc, Options{}); err == nil {
		t.Error("unknown structural tag should fail in strict mode")
	}
	if _, err := s.Shred(doc, Options{Lenient: true}); err != nil {
		t.Errorf("lenient mode should accept: %v", err)
	}

	// Dynamic node mixing value and children.
	doc = fig3Doc(t)
	for _, a := range doc.FindAll("attr") {
		if a.ChildText("attrlabl") == "grid-stretching" {
			a.Append(xmldoc.NewLeaf("attrv", "7"))
		}
	}
	if _, err := s.Shred(doc, Options{}); err == nil {
		t.Error("mixed dynamic node should fail")
	}

	// Dynamic attribute without its identity element.
	doc = fig3Doc(t)
	det := doc.FindAll("detailed")[0]
	var kept []*xmldoc.Node
	for _, ch := range det.Children {
		if ch.Tag != "enttyp" {
			kept = append(kept, ch)
		}
	}
	det.Children = kept
	if _, err := s.Shred(doc, Options{}); err == nil {
		t.Error("dynamic attribute without identity should fail")
	}

	// Document with no metadata attributes at all.
	empty, _ := xmldoc.ParseString("<LEADresource><data><idinfo></idinfo></data></LEADresource>")
	if _, err := s.Shred(empty, Options{}); err == nil {
		t.Error("document without attributes should fail")
	}
}

// TestShredRefusesOrdinalPastBound pins the per-definition ordinal
// bound on both shredder entry points without a million-instance
// document: the counters are seeded just below and at maxAttrSeq. The
// Figure 3 document carries two theme instances, so a theme ordinal
// seeded at maxAttrSeq-2 ends exactly on the bound and one more pushes
// the second past it. Shred is what Ingest and IngestXML call; the
// catalog's AddAttribute test covers ShredAttribute end to end.
func TestShredRefusesOrdinalPastBound(t *testing.T) {
	s, reg := newFig3Shredder(t)
	themeDef := reg.LookupAttr("theme", "", 0, "")
	seeded := func(start int) (*ShredResult, error) {
		return s.shred(fig3Doc(t), s.newShredState(Options{}, nil, map[int64]int{themeDef.ID: start}))
	}
	res, err := seeded(maxAttrSeq - 2)
	if err != nil {
		t.Fatalf("ordinals ending on the bound: %v", err)
	}
	var last int
	for _, a := range res.Attrs {
		if a.AttrID == themeDef.ID {
			last = a.Seq
		}
	}
	if last != maxAttrSeq {
		t.Fatalf("last theme ordinal = %d, want %d", last, maxAttrSeq)
	}
	var verr *ValidationError
	if _, err := seeded(maxAttrSeq - 1); !errorsAs(err, &verr) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("ordinal past the bound: err = %v, want a ValidationError", err)
	}

	theme := s.Schema.AttributeByTag("theme")
	frag, _ := xmldoc.ParseString("<theme><themekt>x</themekt></theme>")
	if _, err := s.ShredAttribute(frag, theme, Options{}, nil, map[int64]int{themeDef.ID: maxAttrSeq}); !errorsAs(err, &verr) {
		t.Fatalf("ShredAttribute past the bound: err = %v, want a ValidationError", err)
	}
	// A fresh document is nowhere near it.
	if _, err := s.Shred(fig3Doc(t), Options{}); err != nil {
		t.Fatal(err)
	}
}

// errorsAs is a tiny local wrapper to avoid importing errors just for As.
func errorsAs(err error, target **ValidationError) bool {
	v, ok := err.(*ValidationError)
	if ok {
		*target = v
	}
	return ok
}

func TestShredStructuralSubAttributes(t *testing.T) {
	s, reg := newFig3Shredder(t)
	doc, err := xmldoc.ParseString(`<LEADresource>
	  <resourceID>r1</resourceID>
	  <data>
	    <geospatial>
	      <spdom>
	        <bounding>
	          <westbc>-98.5</westbc>
	          <eastbc>-96.5</eastbc>
	        </bounding>
	        <vertdom>
	          <vertmin>0</vertmin>
	          <vertmax>20000</vertmax>
	        </vertdom>
	      </spdom>
	    </geospatial>
	  </data>
	</LEADresource>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Shred(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spdom := reg.LookupAttr("spdom", "", 0, "")
	bounding := reg.LookupAttr("bounding", "", spdom.ID, "")
	vertdom := reg.LookupAttr("vertdom", "", spdom.ID, "")
	// Inverted list links bounding and vertdom to spdom.
	links := map[int64]int64{}
	for _, sa := range res.SubAttrs {
		links[sa.ChildAttrID] = sa.AncAttrID
		if sa.Depth != 1 {
			t.Errorf("depth = %d", sa.Depth)
		}
	}
	if links[bounding.ID] != spdom.ID || links[vertdom.ID] != spdom.ID {
		t.Errorf("links = %v", links)
	}
	// westbc owned by the bounding instance with numeric shadow.
	west := reg.LookupElem("westbc", "", bounding.ID, "")
	found := false
	for _, e := range res.Elems {
		if e.ElemID == west.ID {
			found = true
			if e.AttrID != bounding.ID || !e.HasNum || e.Num != -98.5 {
				t.Errorf("westbc rec = %+v", e)
			}
		}
	}
	if !found {
		t.Error("westbc not shredded")
	}
}

func TestShredDeepDynamicNesting(t *testing.T) {
	s, reg := newFig3Shredder(t)
	grid := reg.LookupAttr("grid", "ARPS", 0, "")
	gs := reg.LookupAttr("grid-stretching", "ARPS", grid.ID, "")
	lvl3, err := reg.RegisterAttr("level3", "ARPS", gs.ID, 19, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RegisterElem("deep", "ARPS", lvl3.ID, DTInt, ""); err != nil {
		t.Fatal(err)
	}
	doc, err := xmldoc.ParseString(`<LEADresource><resourceID>r</resourceID><data><geospatial><eainfo>
	  <detailed>
	    <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>
	    <attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>
	      <attr><attrlabl>level3</attrlabl><attrdefs>ARPS</attrdefs>
	        <attr><attrlabl>deep</attrlabl><attrdefs>ARPS</attrdefs><attrv>7</attrv></attr>
	      </attr>
	    </attr>
	  </detailed>
	</eainfo></geospatial></data></LEADresource>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Shred(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// level3 must link to both grid-stretching (depth 1) and grid
	// (depth 2) — the full inverted list, not just direct parents.
	var gotDepths []int
	for _, sa := range res.SubAttrs {
		if sa.ChildAttrID == lvl3.ID {
			gotDepths = append(gotDepths, sa.Depth)
			if sa.Depth == 2 && sa.AncAttrID != grid.ID {
				t.Errorf("depth-2 ancestor = %d, want grid %d", sa.AncAttrID, grid.ID)
			}
		}
	}
	if len(gotDepths) != 2 {
		t.Fatalf("level3 links = %v, want depths {1,2}", gotDepths)
	}
}

func TestShredSeqNumbering(t *testing.T) {
	s, reg := newFig3Shredder(t)
	res, err := s.Shred(fig3Doc(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	theme := reg.LookupAttr("theme", "", 0, "")
	var seqs []int
	for _, a := range res.Attrs {
		if a.AttrID == theme.ID {
			seqs = append(seqs, a.Seq)
		}
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Errorf("theme same-sibling seqs = %v", seqs)
	}
}
