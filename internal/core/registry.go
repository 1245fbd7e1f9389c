package core

import (
	"fmt"
	"maps"
	"sort"

	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Defs is one version of the catalog's metadata attribute and element
// definitions. Structural definitions are derived from the annotated
// schema (NewDefs); dynamic definitions are registered at admin level
// (visible to everyone) or user level (private, §3).
//
// A Defs is immutable once published. A writer registers into a private
// copy (Clone) and publishes the copy with the rest of its version: the
// catalog keeps its definitions as the value of its relstore version,
// so a definition commits, aborts and publishes exactly when the rows
// of the transaction that created it do. The definition set is small
// (tens to a few hundred entries), so one map copy per writing
// transaction is cheap.
type Defs struct {
	attrs      map[int64]*AttrDef
	elems      map[int64]*ElemDef
	attrByKey  map[attrKey]int64
	elemByKey  map[elemKey]int64
	nextAttrID int64
	nextElemID int64
}

// attrKey identifies an attribute definition: name and source, the parent
// definition (0 for top level), and the owner scope.
type attrKey struct {
	name, source string
	parentID     int64
	owner        string
}

// elemKey identifies an element definition within its attribute.
type elemKey struct {
	name, source string
	attrID       int64
	owner        string
}

func newDefs(attrs, elems int) *Defs {
	return &Defs{
		attrs:     make(map[int64]*AttrDef, attrs),
		elems:     make(map[int64]*ElemDef, elems),
		attrByKey: make(map[attrKey]int64, attrs),
		elemByKey: make(map[elemKey]int64, elems),
	}
}

// NewDefs returns the structural definitions of the schema: one
// attribute definition per annotated attribute node, one definition per
// interior sub-attribute node inside it, and one element definition per
// leaf (all admin-owned, type string).
func NewDefs(schema *xmlschema.Schema) (*Defs, error) {
	d := newDefs(0, 0)
	for _, node := range schema.Attributes {
		if node.IsDynamic {
			// Dynamic containers own no structural definitions; dynamic
			// attribute definitions are registered with the container's
			// schema order as their location.
			continue
		}
		def, err := d.addAttr(node.Tag, "", 0, node.Order, node.Queryable, false, "")
		if err != nil {
			return nil, err
		}
		if err := d.seedStructural(node, def); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// RestoreDefs rebuilds a definition set from a snapshot's definitions,
// each at its own ID; the ID counters resume above the highest ones.
func RestoreDefs(attrs []AttrDef, elems []ElemDef) (*Defs, error) {
	d := newDefs(len(attrs), len(elems))
	for _, a := range attrs {
		if err := d.AdoptAttr(a); err != nil {
			return nil, err
		}
	}
	for _, e := range elems {
		if err := d.AdoptElem(e); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Clone returns a private copy of d for a writer to register into.
func (d *Defs) Clone() *Defs {
	c := *d
	c.attrs = maps.Clone(d.attrs)
	c.elems = maps.Clone(d.elems)
	c.attrByKey = maps.Clone(d.attrByKey)
	c.elemByKey = maps.Clone(d.elemByKey)
	return &c
}

// seedStructural registers the sub-attribute and element definitions
// inside one structural attribute subtree.
func (d *Defs) seedStructural(node *xmlschema.Node, owner *AttrDef) error {
	if len(node.Children) == 0 {
		// The attribute is its own element (e.g. resourceID).
		_, err := d.addElem(node.Tag, "", owner.ID, DTString, "")
		return err
	}
	for _, c := range node.Children {
		if len(c.Children) == 0 {
			if _, err := d.addElem(c.Tag, "", owner.ID, DTString, ""); err != nil {
				return err
			}
			continue
		}
		sub, err := d.addAttr(c.Tag, "", owner.ID, owner.SchemaOrder, owner.Queryable, false, "")
		if err != nil {
			return err
		}
		if err := d.seedStructural(c, sub); err != nil {
			return err
		}
	}
	return nil
}

func (d *Defs) addAttr(name, source string, parentID int64, schemaOrder int, queryable, dynamic bool, owner string) (*AttrDef, error) {
	key := attrKey{name, source, parentID, owner}
	if _, dup := d.attrByKey[key]; dup {
		return nil, fmt.Errorf("core: attribute %q (source %q) already defined", name, source)
	}
	d.nextAttrID++
	def := &AttrDef{
		ID: d.nextAttrID, Name: name, Source: source, ParentID: parentID,
		SchemaOrder: schemaOrder, Queryable: queryable, Dynamic: dynamic, Owner: owner,
	}
	d.attrs[def.ID] = def
	d.attrByKey[key] = def.ID
	return def, nil
}

func (d *Defs) addElem(name, source string, attrID int64, dt DataType, owner string) (*ElemDef, error) {
	key := elemKey{name, source, attrID, owner}
	if _, dup := d.elemByKey[key]; dup {
		return nil, fmt.Errorf("core: element %q (source %q) already defined in attribute %d", name, source, attrID)
	}
	d.nextElemID++
	def := &ElemDef{ID: d.nextElemID, AttrID: attrID, Name: name, Source: source, Type: dt, Owner: owner}
	d.elems[def.ID] = def
	d.elemByKey[key] = def.ID
	return def, nil
}

// RegisterAttr registers a dynamic attribute definition in a private
// copy. parentID is 0 for a top-level dynamic attribute (one resolved
// from a dynamic container's entity identity), or the ID of the parent
// definition for a sub-attribute. schemaOrder must be the global order
// of the dynamic container whose documents carry it. owner is empty for
// admin-level definitions.
func (d *Defs) RegisterAttr(name, source string, parentID int64, schemaOrder int, owner string) (*AttrDef, error) {
	if parentID != 0 && d.attrs[parentID] == nil {
		return nil, fmt.Errorf("core: parent attribute %d not defined", parentID)
	}
	return d.addAttr(name, source, parentID, schemaOrder, true, true, owner)
}

// RegisterElem registers a dynamic element definition under an attribute
// definition in a private copy, with a data type enforced on insert.
func (d *Defs) RegisterElem(name, source string, attrID int64, dt DataType, owner string) (*ElemDef, error) {
	if d.attrs[attrID] == nil {
		return nil, fmt.Errorf("core: attribute %d not defined", attrID)
	}
	return d.addElem(name, source, attrID, dt, owner)
}

// AdoptAttr installs a definition in a private copy at the ID it was
// logged with: log replay's counterpart of registration, which never
// allocates an ID. A taken ID or identity is refused; the ID counter
// resumes above the adopted ID.
func (d *Defs) AdoptAttr(a AttrDef) error {
	key := attrKey{a.Name, a.Source, a.ParentID, a.Owner}
	if _, dup := d.attrByKey[key]; dup {
		return fmt.Errorf("core: cannot adopt attribute %q (source %q): already defined", a.Name, a.Source)
	}
	if _, dup := d.attrs[a.ID]; dup || a.ID <= 0 {
		return fmt.Errorf("core: cannot adopt attribute %q: bad id %d", a.Name, a.ID)
	}
	d.attrs[a.ID] = &a
	d.attrByKey[key] = a.ID
	d.nextAttrID = max(d.nextAttrID, a.ID)
	return nil
}

// AdoptElem is AdoptAttr for an element definition; its attribute must
// be defined.
func (d *Defs) AdoptElem(e ElemDef) error {
	if _, ok := d.attrs[e.AttrID]; !ok {
		return fmt.Errorf("core: cannot adopt element %q: missing attribute %d", e.Name, e.AttrID)
	}
	key := elemKey{e.Name, e.Source, e.AttrID, e.Owner}
	if _, dup := d.elemByKey[key]; dup {
		return fmt.Errorf("core: cannot adopt element %q (source %q): already defined", e.Name, e.Source)
	}
	if _, dup := d.elems[e.ID]; dup || e.ID <= 0 {
		return fmt.Errorf("core: cannot adopt element %q: bad id %d", e.Name, e.ID)
	}
	d.elems[e.ID] = &e
	d.elemByKey[key] = e.ID
	d.nextElemID = max(d.nextElemID, e.ID)
	return nil
}

// LookupAttr resolves an attribute definition by identity, preferring a
// user-private definition over an admin one.
func (d *Defs) LookupAttr(name, source string, parentID int64, user string) *AttrDef {
	if user != "" {
		if id, ok := d.attrByKey[attrKey{name, source, parentID, user}]; ok {
			return d.attrs[id]
		}
	}
	if id, ok := d.attrByKey[attrKey{name, source, parentID, ""}]; ok {
		return d.attrs[id]
	}
	return nil
}

// LookupElem resolves an element definition within an attribute,
// preferring a user-private definition.
func (d *Defs) LookupElem(name, source string, attrID int64, user string) *ElemDef {
	if user != "" {
		if id, ok := d.elemByKey[elemKey{name, source, attrID, user}]; ok {
			return d.elems[id]
		}
	}
	if id, ok := d.elemByKey[elemKey{name, source, attrID, ""}]; ok {
		return d.elems[id]
	}
	return nil
}

// AttrByID returns the attribute definition with the given ID, or nil.
func (d *Defs) AttrByID(id int64) *AttrDef { return d.attrs[id] }

// ElemByID returns the element definition with the given ID, or nil.
func (d *Defs) ElemByID(id int64) *ElemDef { return d.elems[id] }

// Attrs returns the attribute definitions sorted by ID.
func (d *Defs) Attrs() []*AttrDef {
	out := make([]*AttrDef, 0, len(d.attrs))
	for _, a := range d.attrs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Elems returns the element definitions sorted by ID.
func (d *Defs) Elems() []*ElemDef {
	out := make([]*ElemDef, 0, len(d.elems))
	for _, e := range d.elems {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Registry is where a shredder finds its definitions. It holds no
// version of its own: defs returns the version lookups resolve against,
// and draft, when non-nil, a private copy auto-registration writes into.
// A catalog's Reg resolves against its published version and cannot
// register; the shredder a catalog mutation runs resolves against the
// mutation's transaction and registers into the transaction's copy.
type Registry struct {
	defs  func() *Defs
	draft func() *Defs
}

// NewRegistry returns a registry over the given sources; a nil draft
// makes it read-only.
func NewRegistry(defs, draft func() *Defs) *Registry {
	return &Registry{defs: defs, draft: draft}
}

// Defs returns the version the registry currently resolves against. Pin
// it once to resolve several definitions against one version.
func (r *Registry) Defs() *Defs { return r.defs() }
