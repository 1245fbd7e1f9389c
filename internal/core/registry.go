package core

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Registry holds the catalog's metadata attribute and element
// definitions. Structural definitions are derived from the annotated
// schema at construction; dynamic definitions are registered at admin
// level (visible to everyone) or user level (private, §3). The registry
// is safe for concurrent use.
//
// Like the relational store, the registry is multi-version: one
// immutable regVersion is published behind an atomic pointer, writers
// (serialized by a mutex) clone the maps, apply the registration, and
// swap the pointer, and readers resolve against whatever version they
// load — lock-free, with Snapshot pinning one version across several
// resolutions. The definition set is small (tens to a few hundred
// entries), so a full map copy per registration costs far less than the
// reader-side locking it removes.
type Registry struct {
	wmu     sync.Mutex // serializes writers
	current atomic.Pointer[regVersion]
}

// regVersion is one immutable published state of the registry. gen
// counts definition mutations (dynamic registration, restore):
// resolution caches stamp entries with it, and because the definition
// set only grows during normal operation, a cached positive resolution
// can never become wrong within one generation.
type regVersion struct {
	gen        uint64
	attrs      map[int64]*AttrDef
	elems      map[int64]*ElemDef
	attrByKey  map[attrKey]int64
	elemByKey  map[elemKey]int64
	nextAttrID int64
	nextElemID int64
}

// clone returns a private copy of v with fresh maps, for a writer to
// mutate before publishing.
func (v *regVersion) clone() *regVersion {
	c := *v
	c.attrs = maps.Clone(v.attrs)
	c.elems = maps.Clone(v.elems)
	c.attrByKey = maps.Clone(v.attrByKey)
	c.elemByKey = maps.Clone(v.elemByKey)
	return &c
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

// NewRegistry builds a registry seeded with the structural definitions of
// the schema: one attribute definition per annotated attribute node, one
// definition per interior sub-attribute node inside it, and one element
// definition per leaf (all admin-owned, type string).
func NewRegistry(schema *xmlschema.Schema) (*Registry, error) {
	v := &regVersion{
		attrs:     make(map[int64]*AttrDef),
		elems:     make(map[int64]*ElemDef),
		attrByKey: make(map[attrKey]int64),
		elemByKey: make(map[elemKey]int64),
	}
	for _, node := range schema.Attributes {
		if node.IsDynamic {
			// Dynamic containers own no structural definitions; dynamic
			// attribute definitions are registered with the container's
			// schema order as their location.
			continue
		}
		def, err := v.addAttr(node.Tag, "", 0, node.Order, node.Queryable, false, "")
		if err != nil {
			return nil, err
		}
		if err := v.seedStructural(node, def); err != nil {
			return nil, err
		}
	}
	r := &Registry{}
	r.current.Store(v)
	return r, nil
}

// seedStructural registers the sub-attribute and element definitions
// inside one structural attribute subtree.
func (v *regVersion) seedStructural(node *xmlschema.Node, owner *AttrDef) error {
	if len(node.Children) == 0 {
		// The attribute is its own element (e.g. resourceID).
		_, err := v.addElem(node.Tag, "", owner.ID, DTString, "")
		return err
	}
	for _, c := range node.Children {
		if len(c.Children) == 0 {
			if _, err := v.addElem(c.Tag, "", owner.ID, DTString, ""); err != nil {
				return err
			}
			continue
		}
		sub, err := v.addAttr(c.Tag, "", owner.ID, owner.SchemaOrder, owner.Queryable, false, "")
		if err != nil {
			return err
		}
		if err := v.seedStructural(c, sub); err != nil {
			return err
		}
	}
	return nil
}

// addAttr and addElem mutate a draft version private to the writer; each
// successful registration bumps gen, preserving the pre-MVCC per-
// definition generation semantics.

func (v *regVersion) addAttr(name, source string, parentID int64, schemaOrder int, queryable, dynamic bool, owner string) (*AttrDef, error) {
	key := attrKey{name, source, parentID, owner}
	if _, dup := v.attrByKey[key]; dup {
		return nil, fmt.Errorf("core: attribute %q (source %q) already defined", name, source)
	}
	v.nextAttrID++
	def := &AttrDef{
		ID: v.nextAttrID, Name: name, Source: source, ParentID: parentID,
		SchemaOrder: schemaOrder, Queryable: queryable, Dynamic: dynamic, Owner: owner,
	}
	v.attrs[def.ID] = def
	v.attrByKey[key] = def.ID
	v.gen++
	return def, nil
}

func (v *regVersion) addElem(name, source string, attrID int64, dt DataType, owner string) (*ElemDef, error) {
	key := elemKey{name, source, attrID, owner}
	if _, dup := v.elemByKey[key]; dup {
		return nil, fmt.Errorf("core: element %q (source %q) already defined in attribute %d", name, source, attrID)
	}
	v.nextElemID++
	def := &ElemDef{ID: v.nextElemID, AttrID: attrID, Name: name, Source: source, Type: dt, Owner: owner}
	v.elems[def.ID] = def
	v.elemByKey[key] = def.ID
	v.gen++
	return def, nil
}

// RegisterAttr registers a dynamic attribute definition. parentID is 0
// for a top-level dynamic attribute (one resolved from a dynamic
// container's entity identity), or the ID of the parent definition for a
// sub-attribute. schemaOrder must be the global order of the dynamic
// container whose documents carry it. owner is empty for admin-level
// definitions.
func (r *Registry) RegisterAttr(name, source string, parentID int64, schemaOrder int, owner string) (*AttrDef, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	v := r.current.Load()
	if parentID != 0 {
		if _, ok := v.attrs[parentID]; !ok {
			return nil, fmt.Errorf("core: parent attribute %d not defined", parentID)
		}
	}
	draft := v.clone()
	def, err := draft.addAttr(name, source, parentID, schemaOrder, true, true, owner)
	if err != nil {
		return nil, err
	}
	r.current.Store(draft)
	return def, nil
}

// RegisterElem registers a dynamic element definition under an attribute
// definition, with a data type enforced on insert.
func (r *Registry) RegisterElem(name, source string, attrID int64, dt DataType, owner string) (*ElemDef, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	v := r.current.Load()
	if _, ok := v.attrs[attrID]; !ok {
		return nil, fmt.Errorf("core: attribute %d not defined", attrID)
	}
	draft := v.clone()
	def, err := draft.addElem(name, source, attrID, dt, owner)
	if err != nil {
		return nil, err
	}
	r.current.Store(draft)
	return def, nil
}

// EnsureAttr atomically looks up or registers an admin-level dynamic
// attribute definition; used by auto-registering shreds, which may race
// on the same identity.
func (r *Registry) EnsureAttr(name, source string, parentID int64, schemaOrder int, user string) (*AttrDef, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	v := r.current.Load()
	if user != "" {
		if id, ok := v.attrByKey[attrKey{name, source, parentID, user}]; ok {
			return v.attrs[id], nil
		}
	}
	if id, ok := v.attrByKey[attrKey{name, source, parentID, ""}]; ok {
		return v.attrs[id], nil
	}
	draft := v.clone()
	def, err := draft.addAttr(name, source, parentID, schemaOrder, true, true, "")
	if err != nil {
		return nil, err
	}
	r.current.Store(draft)
	return def, nil
}

// EnsureElem atomically looks up or registers an admin-level element
// definition.
func (r *Registry) EnsureElem(name, source string, attrID int64, dt DataType, user string) (*ElemDef, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	v := r.current.Load()
	if user != "" {
		if id, ok := v.elemByKey[elemKey{name, source, attrID, user}]; ok {
			return v.elems[id], nil
		}
	}
	if id, ok := v.elemByKey[elemKey{name, source, attrID, ""}]; ok {
		return v.elems[id], nil
	}
	draft := v.clone()
	def, err := draft.addElem(name, source, attrID, dt, "")
	if err != nil {
		return nil, err
	}
	r.current.Store(draft)
	return def, nil
}

// lookupAttr resolves within one version, preferring a user-private
// definition over an admin one.
func (v *regVersion) lookupAttr(name, source string, parentID int64, user string) *AttrDef {
	if user != "" {
		if id, ok := v.attrByKey[attrKey{name, source, parentID, user}]; ok {
			return v.attrs[id]
		}
	}
	if id, ok := v.attrByKey[attrKey{name, source, parentID, ""}]; ok {
		return v.attrs[id]
	}
	return nil
}

// lookupElem resolves an element within one version, preferring a
// user-private definition.
func (v *regVersion) lookupElem(name, source string, attrID int64, user string) *ElemDef {
	if user != "" {
		if id, ok := v.elemByKey[elemKey{name, source, attrID, user}]; ok {
			return v.elems[id]
		}
	}
	if id, ok := v.elemByKey[elemKey{name, source, attrID, ""}]; ok {
		return v.elems[id]
	}
	return nil
}

func (v *regVersion) sortedAttrs() []*AttrDef {
	out := make([]*AttrDef, 0, len(v.attrs))
	for _, d := range v.attrs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (v *regVersion) sortedElems() []*ElemDef {
	out := make([]*ElemDef, 0, len(v.elems))
	for _, d := range v.elems {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LookupAttr resolves an attribute definition by identity, preferring a
// user-private definition over an admin one.
func (r *Registry) LookupAttr(name, source string, parentID int64, user string) *AttrDef {
	return r.current.Load().lookupAttr(name, source, parentID, user)
}

// LookupElem resolves an element definition within an attribute,
// preferring a user-private definition.
func (r *Registry) LookupElem(name, source string, attrID int64, user string) *ElemDef {
	return r.current.Load().lookupElem(name, source, attrID, user)
}

// Generation returns the registry's definition-mutation counter.
func (r *Registry) Generation() uint64 { return r.current.Load().gen }

// Snapshot pins the current version for lock-free resolution. All
// lookups through the snapshot observe exactly one definition set, even
// while writers publish later versions.
func (r *Registry) Snapshot() *RegSnap {
	return &RegSnap{v: r.current.Load()}
}

// RegSnap is a pinned, immutable view of the registry as of one
// version; see Registry.Snapshot.
type RegSnap struct {
	v *regVersion
}

// Generation returns the pinned version's definition-mutation counter.
func (s *RegSnap) Generation() uint64 { return s.v.gen }

// LookupAttr resolves an attribute definition in the pinned version,
// preferring a user-private definition over an admin one.
func (s *RegSnap) LookupAttr(name, source string, parentID int64, user string) *AttrDef {
	return s.v.lookupAttr(name, source, parentID, user)
}

// LookupElem resolves an element definition in the pinned version,
// preferring a user-private definition.
func (s *RegSnap) LookupElem(name, source string, attrID int64, user string) *ElemDef {
	return s.v.lookupElem(name, source, attrID, user)
}

// AttrByID returns the pinned version's attribute definition with the
// given ID, or nil.
func (s *RegSnap) AttrByID(id int64) *AttrDef { return s.v.attrs[id] }

// ElemByID returns the pinned version's element definition with the
// given ID, or nil.
func (s *RegSnap) ElemByID(id int64) *ElemDef { return s.v.elems[id] }

// Attrs returns the pinned version's attribute definitions sorted by ID.
func (s *RegSnap) Attrs() []*AttrDef { return s.v.sortedAttrs() }

// Elems returns the pinned version's element definitions sorted by ID.
func (s *RegSnap) Elems() []*ElemDef { return s.v.sortedElems() }

// Marks are the highest attribute and element definition IDs of a
// registry version. IDs are handed out in increasing order and never
// reused, so every definition added later lies above them.
type Marks struct{ Attr, Elem int64 }

// Marks returns the pinned version's marks.
func (s *RegSnap) Marks() Marks { return Marks{s.v.nextAttrID, s.v.nextElemID} }

// AdoptAttr installs a definition at the ID it was logged with: log
// replay's counterpart of registration, which never allocates an ID.
// An identical definition already at that ID is a no-op (a snapshot
// may hold it); a different one there is an error.
func (r *Registry) AdoptAttr(d AttrDef) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if cur := r.current.Load().attrs[d.ID]; cur != nil && *cur == d {
		return nil
	}
	return r.publish(func(v *regVersion) error { return v.adoptAttr(d) })
}

// AdoptElem is AdoptAttr for an element definition.
func (r *Registry) AdoptElem(d ElemDef) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if cur := r.current.Load().elems[d.ID]; cur != nil && *cur == d {
		return nil
	}
	return r.publish(func(v *regVersion) error { return v.adoptElem(d) })
}

// publish applies add to a draft of the current version and publishes
// the draft; r.wmu must be held.
func (r *Registry) publish(add func(*regVersion) error) error {
	draft := r.current.Load().clone()
	if err := add(draft); err != nil {
		return fmt.Errorf("core: adopt: %w", err)
	}
	draft.gen++
	r.current.Store(draft)
	return nil
}

// adoptAttr and adoptElem install a definition at its own ID in a draft
// version, refusing a taken ID or identity and a missing parent; the ID
// counter resumes above the adopted ID.

func (v *regVersion) adoptAttr(d AttrDef) error {
	key := attrKey{d.Name, d.Source, d.ParentID, d.Owner}
	if _, dup := v.attrByKey[key]; dup {
		return fmt.Errorf("attribute %q (source %q) already defined", d.Name, d.Source)
	}
	if _, dup := v.attrs[d.ID]; dup || d.ID <= 0 {
		return fmt.Errorf("bad attribute id %d", d.ID)
	}
	v.attrs[d.ID] = &d
	v.attrByKey[key] = d.ID
	v.nextAttrID = max(v.nextAttrID, d.ID)
	return nil
}

func (v *regVersion) adoptElem(d ElemDef) error {
	if _, ok := v.attrs[d.AttrID]; !ok {
		return fmt.Errorf("element %q references missing attribute %d", d.Name, d.AttrID)
	}
	key := elemKey{d.Name, d.Source, d.AttrID, d.Owner}
	if _, dup := v.elemByKey[key]; dup {
		return fmt.Errorf("element %q (source %q) already defined", d.Name, d.Source)
	}
	if _, dup := v.elems[d.ID]; dup || d.ID <= 0 {
		return fmt.Errorf("bad element id %d", d.ID)
	}
	v.elems[d.ID] = &d
	v.elemByKey[key] = d.ID
	v.nextElemID = max(v.nextElemID, d.ID)
	return nil
}

// Restore replaces the registry's contents with the given definitions
// (used when loading a catalog snapshot). Definitions are copied; the ID
// counters resume above the highest restored IDs.
func (r *Registry) Restore(attrs []AttrDef, elems []ElemDef) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	v := &regVersion{
		// Restore may shrink or rewrite the definition set, so the
		// grow-only assumption behind resolution caching does not hold
		// across it; the bump forces every cached resolution stale.
		gen:       r.current.Load().gen + 1,
		attrs:     make(map[int64]*AttrDef, len(attrs)),
		elems:     make(map[int64]*ElemDef, len(elems)),
		attrByKey: make(map[attrKey]int64, len(attrs)),
		elemByKey: make(map[elemKey]int64, len(elems)),
	}
	for _, d := range attrs {
		if err := v.adoptAttr(d); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	for _, d := range elems {
		if err := v.adoptElem(d); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	r.current.Store(v)
	return nil
}

// AttrByID returns the attribute definition with the given ID, or nil.
func (r *Registry) AttrByID(id int64) *AttrDef {
	return r.current.Load().attrs[id]
}

// ElemByID returns the element definition with the given ID, or nil.
func (r *Registry) ElemByID(id int64) *ElemDef {
	return r.current.Load().elems[id]
}

// Attrs returns all attribute definitions sorted by ID.
func (r *Registry) Attrs() []*AttrDef {
	return r.current.Load().sortedAttrs()
}

// Elems returns all element definitions sorted by ID.
func (r *Registry) Elems() []*ElemDef {
	return r.current.Load().sortedElems()
}
