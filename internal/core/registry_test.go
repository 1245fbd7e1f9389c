package core

import (
	"testing"

	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func newLEADDefs(t *testing.T) *Defs {
	t.Helper()
	d, err := NewDefs(xmlschema.MustLEAD())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writable returns a registry that resolves against and registers into
// d itself.
func writable(d *Defs) *Registry {
	f := func() *Defs { return d }
	return NewRegistry(f, f)
}

func TestRegistrySeedsStructuralDefs(t *testing.T) {
	r := newLEADDefs(t)
	theme := r.LookupAttr("theme", "", 0, "")
	if theme == nil || theme.Dynamic || !theme.Queryable || theme.ParentID != 0 {
		t.Fatalf("theme def = %+v", theme)
	}
	if theme.SchemaOrder == 0 {
		t.Error("structural def should carry its schema order")
	}
	kt := r.LookupElem("themekt", "", theme.ID, "")
	key := r.LookupElem("themekey", "", theme.ID, "")
	if kt == nil || key == nil {
		t.Fatal("theme elements missing")
	}
	// Sub-attributes of spdom.
	spdom := r.LookupAttr("spdom", "", 0, "")
	bounding := r.LookupAttr("bounding", "", spdom.ID, "")
	if bounding == nil || bounding.ParentID != spdom.ID {
		t.Fatalf("bounding = %+v", bounding)
	}
	if west := r.LookupElem("westbc", "", bounding.ID, ""); west == nil {
		t.Error("westbc should be owned by bounding")
	}
	// The dynamic container itself owns no structural def.
	if d := r.LookupAttr("detailed", "", 0, ""); d != nil {
		t.Errorf("detailed should not be a structural def: %+v", d)
	}
	// resourceID is its own element.
	rid := r.LookupAttr("resourceID", "", 0, "")
	if rid == nil || r.LookupElem("resourceID", "", rid.ID, "") == nil {
		t.Error("resourceID self-element missing")
	}
}

func TestRegisterDynamicDefs(t *testing.T) {
	r := newLEADDefs(t)
	grid, err := r.RegisterAttr("grid", "ARPS", 0, 19, "")
	if err != nil {
		t.Fatal(err)
	}
	if !grid.Dynamic || grid.SchemaOrder != 19 {
		t.Errorf("grid = %+v", grid)
	}
	if _, err := r.RegisterAttr("grid", "ARPS", 0, 19, ""); err == nil {
		t.Error("duplicate registration should fail")
	}
	// Same name, different source, is a different definition.
	if _, err := r.RegisterAttr("grid", "WRF", 0, 19, ""); err != nil {
		t.Errorf("grid/WRF should register: %v", err)
	}
	dx, err := r.RegisterElem("dx", "ARPS", grid.ID, DTFloat, "")
	if err != nil {
		t.Fatal(err)
	}
	if dx.Type != DTFloat {
		t.Errorf("dx type = %v", dx.Type)
	}
	// Sub-attribute under grid.
	gs, err := r.RegisterAttr("grid-stretching", "ARPS", grid.ID, 19, "")
	if err != nil {
		t.Fatal(err)
	}
	if gs.ParentID != grid.ID {
		t.Errorf("gs parent = %d", gs.ParentID)
	}
	// Bad parents fail.
	if _, err := r.RegisterAttr("x", "y", 99999, 19, ""); err == nil {
		t.Error("unknown parent should fail")
	}
	if _, err := r.RegisterElem("x", "y", 99999, DTString, ""); err == nil {
		t.Error("unknown attribute for element should fail")
	}
}

func TestUserScopedResolution(t *testing.T) {
	r := newLEADDefs(t)
	admin, err := r.RegisterAttr("model", "WRF", 0, 19, "")
	if err != nil {
		t.Fatal(err)
	}
	private, err := r.RegisterAttr("model", "WRF", 0, 19, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// Alice sees her private definition; Bob sees the admin one.
	if got := r.LookupAttr("model", "WRF", 0, "alice"); got.ID != private.ID {
		t.Errorf("alice resolved %d, want private %d", got.ID, private.ID)
	}
	if got := r.LookupAttr("model", "WRF", 0, "bob"); got.ID != admin.ID {
		t.Errorf("bob resolved %d, want admin %d", got.ID, admin.ID)
	}
	if got := r.LookupAttr("model", "WRF", 0, ""); got.ID != admin.ID {
		t.Errorf("anonymous resolved %d, want admin %d", got.ID, admin.ID)
	}
	// Element scoping mirrors attribute scoping.
	if _, err := r.RegisterElem("dt", "WRF", admin.ID, DTFloat, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RegisterElem("dt", "WRF", admin.ID, DTInt, "alice"); err != nil {
		t.Fatal(err)
	}
	if got := r.LookupElem("dt", "WRF", admin.ID, "alice"); got.Type != DTInt {
		t.Error("alice should see her private element type")
	}
	if got := r.LookupElem("dt", "WRF", admin.ID, "bob"); got.Type != DTFloat {
		t.Error("bob should see the admin element type")
	}
}

func TestRegistryListings(t *testing.T) {
	r := newLEADDefs(t)
	attrs := r.Attrs()
	elems := r.Elems()
	if len(attrs) == 0 || len(elems) == 0 {
		t.Fatal("registry should be seeded")
	}
	for i := 1; i < len(attrs); i++ {
		if attrs[i].ID <= attrs[i-1].ID {
			t.Fatal("Attrs not sorted by ID")
		}
	}
	if r.AttrByID(attrs[0].ID) != attrs[0] {
		t.Error("AttrByID mismatch")
	}
	if r.ElemByID(elems[0].ID) != elems[0] {
		t.Error("ElemByID mismatch")
	}
	if r.AttrByID(999999) != nil || r.ElemByID(999999) != nil {
		t.Error("missing IDs should return nil")
	}
}
