package core

import (
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func TestShredAttributeContinuesSequences(t *testing.T) {
	s, reg := newFig3Shredder(t)
	schema := s.Schema
	theme := schema.AttributeByTag("theme")
	frag, _ := xmldoc.ParseString("<theme><themekt>CF</themekt><themekey>added</themekey></theme>")

	// Simulate an object that already has two theme instances.
	themeDef := reg.LookupAttr("theme", "", 0, "")
	res, err := s.ShredAttribute(frag, theme, Options{},
		map[int]int{theme.Order: 2}, map[int64]int{themeDef.ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clobs) != 1 || res.Clobs[0].ClobSeq != 3 {
		t.Fatalf("clob seq = %+v", res.Clobs)
	}
	if len(res.Attrs) != 1 || res.Attrs[0].Seq != 3 {
		t.Fatalf("attr seq = %+v", res.Attrs)
	}

	// Wrong declaration kinds fail.
	if _, err := s.ShredAttribute(frag, schema.Root, Options{}, nil, nil); err == nil {
		t.Error("non-attribute decl should fail")
	}
	other, _ := xmldoc.ParseString("<place><placekt>x</placekt></place>")
	if _, err := s.ShredAttribute(other, theme, Options{}, nil, nil); err == nil {
		t.Error("mismatched fragment tag should fail")
	}
	// Validation problems surface.
	bad, _ := xmldoc.ParseString("<theme><mystery>x</mystery></theme>")
	if _, err := s.ShredAttribute(bad, theme, Options{}, nil, nil); err == nil {
		t.Error("unknown element should fail in strict mode")
	}
}

func TestRegistryRestore(t *testing.T) {
	r := newLEADDefs(t)
	grid, err := r.RegisterAttr("grid", "ARPS", 0, 19, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RegisterElem("dx", "ARPS", grid.ID, DTFloat, ""); err != nil {
		t.Fatal(err)
	}
	attrs := make([]AttrDef, 0)
	for _, d := range r.Attrs() {
		attrs = append(attrs, *d)
	}
	elems := make([]ElemDef, 0)
	for _, d := range r.Elems() {
		elems = append(elems, *d)
	}

	fresh, err := RestoreDefs(attrs, elems)
	if err != nil {
		t.Fatal(err)
	}
	got := fresh.LookupAttr("grid", "ARPS", 0, "")
	if got == nil || got.ID != grid.ID {
		t.Fatalf("restored grid = %+v", got)
	}
	// Counters resume above restored IDs.
	next, err := fresh.RegisterAttr("later", "X", 0, 19, "")
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= grid.ID {
		t.Errorf("post-restore ID %d <= %d", next.ID, grid.ID)
	}
	// Bad restores fail.
	if _, err := RestoreDefs([]AttrDef{{ID: 0, Name: "x"}}, nil); err == nil {
		t.Error("zero ID should fail")
	}
	if _, err := RestoreDefs([]AttrDef{{ID: 1, Name: "a"}, {ID: 1, Name: "b"}}, nil); err == nil {
		t.Error("duplicate ID should fail")
	}
	if _, err := RestoreDefs([]AttrDef{{ID: 1, Name: "a"}, {ID: 2, Name: "a"}}, nil); err == nil {
		t.Error("duplicate identity should fail")
	}
	if _, err := RestoreDefs([]AttrDef{{ID: 1, Name: "a"}},
		[]ElemDef{{ID: 1, AttrID: 99, Name: "e"}}); err == nil {
		t.Error("dangling element should fail")
	}
}

// TestRegistryAdopt: replay installs logged definitions at their own
// IDs. Adopting again — even the identical definition — is refused, as
// are a different definition at a taken ID, a taken identity and a
// dangling element; registration resumes above the adopted IDs. A
// clone adopts without touching the version it was cloned from.
func TestRegistryAdopt(t *testing.T) {
	base := newLEADDefs(t)
	attrs, elems := base.Attrs(), base.Elems()
	grid := AttrDef{ID: attrs[len(attrs)-1].ID + 2, Name: "grid", Source: "ARPS", SchemaOrder: 19, Queryable: true, Dynamic: true, Owner: "alice"}
	dx := ElemDef{ID: elems[len(elems)-1].ID + 5, AttrID: grid.ID, Name: "dx", Source: "ARPS", Type: DTFloat}
	r := base.Clone()
	if err := r.AdoptAttr(grid); err != nil {
		t.Fatal(err)
	}
	if err := r.AdoptElem(dx); err != nil {
		t.Fatal(err)
	}
	if got := r.LookupElem("dx", "ARPS", grid.ID, ""); got == nil || *got != dx {
		t.Fatalf("adopted dx resolves as %+v", got)
	}
	if base.AttrByID(grid.ID) != nil || base.ElemByID(dx.ID) != nil {
		t.Fatal("adopting into a clone changed the version it was cloned from")
	}
	if err := r.AdoptAttr(grid); err == nil {
		t.Error("an identical definition was adopted twice")
	}
	other := grid
	other.Owner = "bob"
	if err := r.AdoptAttr(other); err == nil {
		t.Error("a different definition at a taken ID was adopted")
	}
	other.ID++
	other.Owner = "alice"
	if err := r.AdoptAttr(other); err == nil {
		t.Error("a taken identity was adopted under another ID")
	}
	if err := r.AdoptElem(ElemDef{ID: dx.ID + 1, AttrID: 999, Name: "e"}); err == nil {
		t.Error("an element of a missing attribute was adopted")
	}
	next, err := r.RegisterAttr("later", "X", 0, 19, "")
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != grid.ID+1 {
		t.Errorf("registration after adopt issued ID %d, want %d", next.ID, grid.ID+1)
	}
	nextElem, err := r.RegisterElem("dy", "ARPS", grid.ID, DTFloat, "")
	if err != nil {
		t.Fatal(err)
	}
	if nextElem.ID != dx.ID+1 {
		t.Errorf("element registration after adopt issued ID %d, want %d", nextElem.ID, dx.ID+1)
	}
}

func TestAttrDefTopLevelAndValidationErrorText(t *testing.T) {
	d := &AttrDef{ID: 1}
	if !d.TopLevel() {
		t.Error("ParentID 0 should be top level")
	}
	d.ParentID = 5
	if d.TopLevel() {
		t.Error("ParentID != 0 should not be top level")
	}
	err := &ValidationError{Problems: []string{"a", "b"}}
	if !strings.Contains(err.Error(), "a; b") {
		t.Errorf("error text = %q", err.Error())
	}
	_ = xmlschema.MustLEAD()
}
