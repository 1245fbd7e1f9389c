package core

import (
	"fmt"
	"maps"
	"strings"

	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// ClobRec is one per-attribute CLOB (§3): the serialized attribute
// subtree, its position in the schema's global ordering, and its
// same-sibling sequence among CLOBs at that position.
type ClobRec struct {
	NodeOrder int
	ClobSeq   int
	AttrID    int64 // 0 when the instance was stored but not shredded
	AttrSeq   int
	XML       string
}

// AttrRec is one shredded attribute instance: (AttrID, Seq) is its key
// within the document.
type AttrRec struct {
	AttrID int64
	Seq    int
}

// ElemRec is one shredded element value, keyed by its owning attribute
// instance, with the element's local order within that instance and the
// dual string/numeric representation.
type ElemRec struct {
	AttrID  int64
	AttrSeq int
	ElemID  int64
	ElemSeq int
	Value   string
	Num     float64
	HasNum  bool
}

// SubAttrRec is one entry of the sub-attribute inverted list (§3): a
// sub-attribute instance related to one of its ancestor attribute
// instances, at the given depth distance (1 = direct parent).
type SubAttrRec struct {
	ChildAttrID int64
	ChildSeq    int
	AncAttrID   int64
	AncSeq      int
	Depth       int
}

// SkipRec records a dynamic attribute or element that had no definition:
// it is retained in the CLOB but not shredded for querying (§3).
type SkipRec struct {
	Name   string
	Source string
	Reason string
}

// ShredResult is the full shredding of one document.
type ShredResult struct {
	Clobs    []ClobRec
	Attrs    []AttrRec
	Elems    []ElemRec
	SubAttrs []SubAttrRec
	Skipped  []SkipRec
	// NewAttrs and NewElems are the definitions auto-registration added,
	// in registration order.
	NewAttrs []*AttrDef
	NewElems []*ElemDef
}

// Options configures shredding.
type Options struct {
	// Owner scopes dynamic definition resolution (user-private
	// definitions are preferred over admin ones).
	Owner string
	// AutoRegister creates admin-level definitions for unknown dynamic
	// attributes and elements instead of skipping them.
	AutoRegister bool
	// Lenient accepts unknown structural tags (they are ignored) instead
	// of failing the document.
	Lenient bool
}

// ValidationError aggregates insert-time validation failures.
type ValidationError struct {
	Problems []string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: document failed validation: %s", strings.Join(e.Problems, "; "))
}

// Shredder shreds documents against one schema and registry. Each shred
// resolves against the version the registry returns when it starts, and
// against the registry's private copy once it auto-registers.
type Shredder struct {
	Schema *xmlschema.Schema
	Reg    *Registry
}

// NewShredder pairs a finalized schema with its registry.
func NewShredder(schema *xmlschema.Schema, reg *Registry) *Shredder {
	return &Shredder{Schema: schema, Reg: reg}
}

// maxAttrSeq bounds an attribute definition's instance ordinal
// (seq_id) within one object. The catalog packs (object, seq) into one
// set key with 20 bits for seq (its instSeqMask), so Shred and
// ShredAttribute refuse an object that would pass it — before any row
// is written — instead of its queries failing later.
const maxAttrSeq = 1<<20 - 1

// shredState carries per-document counters.
type shredState struct {
	res      ShredResult
	clobSeq  map[int]int   // node order -> next sequence
	attrSeq  map[int64]int // attr def -> next sequence
	problems []string
	opts     Options
	defs     *Defs // the version the shred resolves against
}

// newShredState starts the counters at the given values (nil starts a
// fresh document).
func (s *Shredder) newShredState(opts Options, clobSeqStart map[int]int, attrSeqStart map[int64]int) *shredState {
	st := &shredState{clobSeq: make(map[int]int), attrSeq: make(map[int64]int), opts: opts, defs: s.Reg.Defs()}
	maps.Copy(st.clobSeq, clobSeqStart)
	maps.Copy(st.attrSeq, attrSeqStart)
	return st
}

func (st *shredState) nextClobSeq(order int) int {
	st.clobSeq[order]++
	return st.clobSeq[order]
}

func (st *shredState) nextAttrSeq(id int64) int {
	st.attrSeq[id]++
	return st.attrSeq[id]
}

// draft returns the registry's private copy for auto-registration and
// resolves the rest of the shred against it.
func (s *Shredder) draft(st *shredState) (*Defs, error) {
	if s.Reg.draft == nil {
		return nil, fmt.Errorf("core: registry is read-only")
	}
	st.defs = s.Reg.draft()
	return st.defs, nil
}

func (st *shredState) problemf(format string, args ...any) {
	st.problems = append(st.problems, fmt.Sprintf(format, args...))
}

// result returns the shredding, or a ValidationError listing every
// problem, including the first instance ordinal past maxAttrSeq.
func (st *shredState) result() (*ShredResult, error) {
	for _, a := range st.res.Attrs {
		if a.Seq > maxAttrSeq {
			st.problemf("attribute definition %d: instance ordinal %d exceeds %d per object", a.AttrID, a.Seq, maxAttrSeq)
			break
		}
	}
	if len(st.problems) > 0 {
		return nil, &ValidationError{Problems: st.problems}
	}
	return &st.res, nil
}

// instRef names an attribute instance for inverted-list linking.
type instRef struct {
	attrID int64
	seq    int
}

// ShredAttribute shreds a single metadata attribute instance to be
// appended to an existing object (§5: "as metadata attributes were
// inserted later"). decl must be the attribute's schema declaration.
// clobSeqStart and attrSeqStart carry the object's current same-sibling
// counters so sequences continue rather than restart.
func (s *Shredder) ShredAttribute(node *xmldoc.Node, decl *xmlschema.Node, opts Options, clobSeqStart map[int]int, attrSeqStart map[int64]int) (*ShredResult, error) {
	if !decl.IsAttribute {
		return nil, fmt.Errorf("core: <%s> is not a metadata attribute", decl.Tag)
	}
	if node.Tag != decl.Tag {
		return nil, fmt.Errorf("core: fragment root <%s> does not match attribute <%s>", node.Tag, decl.Tag)
	}
	st := s.newShredState(opts, clobSeqStart, attrSeqStart)
	s.shredAttribute(node, decl, st)
	return st.result()
}

// Shred validates the document against the schema partitioning and
// produces the hybrid representation: one CLOB per metadata attribute
// instance plus shredded rows for the queryable attributes.
func (s *Shredder) Shred(doc *xmldoc.Node, opts Options) (*ShredResult, error) {
	return s.shred(doc, s.newShredState(opts, nil, nil))
}

// shred is Shred over the given counters.
func (s *Shredder) shred(doc *xmldoc.Node, st *shredState) (*ShredResult, error) {
	if doc == nil {
		return nil, fmt.Errorf("core: nil document")
	}
	if doc.Tag != s.Schema.Root.Tag {
		return nil, fmt.Errorf("core: document root <%s> does not match schema root <%s>", doc.Tag, s.Schema.Root.Tag)
	}
	if err := s.walkAbove(doc, s.Schema.Root, st); err != nil {
		return nil, err
	}
	res, err := st.result()
	if err != nil {
		return nil, err
	}
	if len(res.Clobs) == 0 {
		return nil, fmt.Errorf("core: document contains no metadata attributes")
	}
	return res, nil
}

// walkAbove descends the region of the document above metadata
// attributes, aligned with the schema graph.
func (s *Shredder) walkAbove(docNode *xmldoc.Node, schemaNode *xmlschema.Node, st *shredState) error {
	for _, child := range docNode.Children {
		var decl *xmlschema.Node
		for _, sc := range schemaNode.Children {
			if sc.Tag == child.Tag {
				decl = sc
				break
			}
		}
		if decl == nil {
			if st.opts.Lenient {
				continue
			}
			return fmt.Errorf("core: element <%s> under <%s> is not declared in schema %s", child.Tag, docNode.Tag, s.Schema.Name)
		}
		if decl.IsAttribute {
			s.shredAttribute(child, decl, st)
			continue
		}
		if err := s.walkAbove(child, decl, st); err != nil {
			return err
		}
	}
	// Leaf-attribute case: a document leaf matching an attribute node is
	// handled by the loop above; text directly under a non-attribute
	// interior node would be mixed content, which xmldoc already rejects.
	return nil
}

// shredAttribute emits the CLOB for one metadata attribute instance and,
// when the attribute is queryable, its shredded rows.
func (s *Shredder) shredAttribute(docNode *xmldoc.Node, decl *xmlschema.Node, st *shredState) {
	clob := ClobRec{
		NodeOrder: decl.Order,
		ClobSeq:   st.nextClobSeq(decl.Order),
		XML:       docNode.String(),
	}
	switch {
	case decl.IsDynamic:
		if ref, ok := s.shredDynamic(docNode, decl, st); ok {
			clob.AttrID, clob.AttrSeq = ref.attrID, ref.seq
		}
	case decl.Queryable:
		ref := s.shredStructural(docNode, decl, st)
		clob.AttrID, clob.AttrSeq = ref.attrID, ref.seq
	}
	st.res.Clobs = append(st.res.Clobs, clob)
}

// shredStructural shreds a structural attribute instance: tags resolve
// definitions directly (§3).
func (s *Shredder) shredStructural(docNode *xmldoc.Node, decl *xmlschema.Node, st *shredState) instRef {
	def := st.defs.LookupAttr(decl.Tag, "", 0, st.opts.Owner)
	if def == nil {
		// Structural definitions are seeded from the schema, so this is a
		// programming error rather than a data error.
		panic(fmt.Sprintf("core: structural attribute %q missing from registry", decl.Tag))
	}
	self := instRef{attrID: def.ID, seq: st.nextAttrSeq(def.ID)}
	st.res.Attrs = append(st.res.Attrs, AttrRec{AttrID: self.attrID, Seq: self.seq})
	if len(decl.Children) == 0 {
		// The attribute is its own element.
		s.emitElem(def.ID, self, decl.Tag, "", docNode.Text, 1, st)
		return self
	}
	elemSeq := 0
	s.walkStructuralBody(docNode, decl, def, []instRef{self}, &elemSeq, st)
	return self
}

// walkStructuralBody shreds the interior of a structural attribute:
// interior schema nodes are sub-attributes, leaves are elements.
func (s *Shredder) walkStructuralBody(docNode *xmldoc.Node, decl *xmlschema.Node, ownerDef *AttrDef, ancestors []instRef, elemSeq *int, st *shredState) {
	for _, child := range docNode.Children {
		var cdecl *xmlschema.Node
		for _, sc := range decl.Children {
			if sc.Tag == child.Tag {
				cdecl = sc
				break
			}
		}
		if cdecl == nil {
			if !st.opts.Lenient {
				st.problemf("element <%s> under <%s> is not declared in the schema", child.Tag, docNode.Tag)
			}
			continue
		}
		if len(cdecl.Children) == 0 {
			*elemSeq++
			s.emitElem(ownerDef.ID, ancestors[len(ancestors)-1], child.Tag, "", child.Text, *elemSeq, st)
			continue
		}
		subDef := st.defs.LookupAttr(cdecl.Tag, "", ownerDef.ID, st.opts.Owner)
		if subDef == nil {
			st.problemf("sub-attribute <%s> of %s missing from registry", cdecl.Tag, ownerDef.Name)
			continue
		}
		self := instRef{attrID: subDef.ID, seq: st.nextAttrSeq(subDef.ID)}
		st.res.Attrs = append(st.res.Attrs, AttrRec{AttrID: self.attrID, Seq: self.seq})
		for i, anc := range ancestors {
			st.res.SubAttrs = append(st.res.SubAttrs, SubAttrRec{
				ChildAttrID: self.attrID, ChildSeq: self.seq,
				AncAttrID: anc.attrID, AncSeq: anc.seq,
				Depth: len(ancestors) - i,
			})
		}
		subSeq := 0
		s.walkStructuralBody(child, cdecl, subDef, append(ancestors, self), &subSeq, st)
	}
}

// emitElem resolves an element definition under ownerID, validates the
// value, and records the element row on the owning instance.
func (s *Shredder) emitElem(ownerID int64, owner instRef, name, source, value string, elemSeq int, st *shredState) {
	edef := st.defs.LookupElem(name, source, ownerID, st.opts.Owner)
	if edef == nil {
		if st.opts.AutoRegister {
			var err error
			if edef, err = s.registerElem(st, name, source, ownerID); err != nil {
				st.problemf("auto-register element %s/%s: %v", name, source, err)
				return
			}
		} else {
			st.res.Skipped = append(st.res.Skipped, SkipRec{Name: name, Source: source, Reason: "no element definition"})
			return
		}
	}
	num, hasNum, err := edef.Type.ValidateValue(value)
	if err != nil {
		st.problemf("element %s (source %q): %v", name, source, err)
		return
	}
	st.res.Elems = append(st.res.Elems, ElemRec{
		AttrID: owner.attrID, AttrSeq: owner.seq,
		ElemID: edef.ID, ElemSeq: elemSeq,
		Value: value, Num: num, HasNum: hasNum,
	})
}

// registerAttr and registerElem auto-register an admin-level definition
// the shred found no definition for, and report it in the result.

func (s *Shredder) registerAttr(st *shredState, name, source string, parentID int64, schemaOrder int) (*AttrDef, error) {
	d, err := s.draft(st)
	if err != nil {
		return nil, err
	}
	def, err := d.RegisterAttr(name, source, parentID, schemaOrder, "")
	if err == nil {
		st.res.NewAttrs = append(st.res.NewAttrs, def)
	}
	return def, err
}

func (s *Shredder) registerElem(st *shredState, name, source string, attrID int64) (*ElemDef, error) {
	d, err := s.draft(st)
	if err != nil {
		return nil, err
	}
	def, err := d.RegisterElem(name, source, attrID, DTString, "")
	if err == nil {
		st.res.NewElems = append(st.res.NewElems, def)
	}
	return def, err
}

// shredDynamic shreds a dynamic attribute container instance (§3): the
// attribute's identity comes from the entity name/source elements, its
// sub-attributes and elements from the recursive node convention. The
// recursion in the schema "disappears" here — resolution is by (name,
// source) against the registry, and the inverted list flattens the
// hierarchy.
func (s *Shredder) shredDynamic(docNode *xmldoc.Node, decl *xmlschema.Node, st *shredState) (instRef, bool) {
	spec := decl.Dynamic
	entity := docNode.Child(spec.EntityTag)
	if entity == nil {
		st.problemf("dynamic attribute <%s> missing <%s> identity", decl.Tag, spec.EntityTag)
		return instRef{}, false
	}
	name := entity.ChildText(spec.NameTag)
	source := entity.ChildText(spec.SourceTag)
	if name == "" {
		st.problemf("dynamic attribute <%s> has empty <%s>", decl.Tag, spec.NameTag)
		return instRef{}, false
	}
	def := st.defs.LookupAttr(name, source, 0, st.opts.Owner)
	if def == nil {
		if st.opts.AutoRegister {
			var err error
			if def, err = s.registerAttr(st, name, source, 0, decl.Order); err != nil {
				st.problemf("auto-register attribute %s/%s: %v", name, source, err)
				return instRef{}, false
			}
		} else {
			st.res.Skipped = append(st.res.Skipped, SkipRec{Name: name, Source: source, Reason: "no attribute definition"})
			return instRef{}, false
		}
	}
	self := instRef{attrID: def.ID, seq: st.nextAttrSeq(def.ID)}
	st.res.Attrs = append(st.res.Attrs, AttrRec{AttrID: self.attrID, Seq: self.seq})
	elemSeq := 0
	for _, node := range docNode.ChildrenByTag(spec.NodeTag) {
		s.shredDynamicNode(node, spec, def, []instRef{self}, &elemSeq, st)
	}
	return self, true
}

// shredDynamicNode handles one recursive node: a leaf with a value
// element is a metadata element; a node with nested nodes is a
// sub-attribute.
func (s *Shredder) shredDynamicNode(node *xmldoc.Node, spec xmlschema.DynamicSpec, parentDef *AttrDef, ancestors []instRef, elemSeq *int, st *shredState) {
	name := node.ChildText(spec.NodeNameTag)
	source := node.ChildText(spec.NodeSourceTag)
	if name == "" {
		st.problemf("dynamic node under %s has empty <%s>", parentDef.Name, spec.NodeNameTag)
		return
	}
	valueNode := node.Child(spec.ValueTag)
	nested := node.ChildrenByTag(spec.NodeTag)
	switch {
	case valueNode != nil && len(nested) > 0:
		st.problemf("dynamic node %s (source %q) mixes a value with nested nodes", name, source)
	case valueNode != nil:
		*elemSeq++
		s.emitElem(parentDef.ID, ancestors[len(ancestors)-1], name, source, valueNode.Text, *elemSeq, st)
	case len(nested) > 0:
		subDef := st.defs.LookupAttr(name, source, parentDef.ID, st.opts.Owner)
		if subDef == nil {
			if st.opts.AutoRegister {
				var err error
				if subDef, err = s.registerAttr(st, name, source, parentDef.ID, parentDef.SchemaOrder); err != nil {
					st.problemf("auto-register sub-attribute %s/%s: %v", name, source, err)
					return
				}
			} else {
				st.res.Skipped = append(st.res.Skipped, SkipRec{Name: name, Source: source, Reason: "no sub-attribute definition"})
				return
			}
		}
		self := instRef{attrID: subDef.ID, seq: st.nextAttrSeq(subDef.ID)}
		st.res.Attrs = append(st.res.Attrs, AttrRec{AttrID: self.attrID, Seq: self.seq})
		for i, anc := range ancestors {
			st.res.SubAttrs = append(st.res.SubAttrs, SubAttrRec{
				ChildAttrID: self.attrID, ChildSeq: self.seq,
				AncAttrID: anc.attrID, AncSeq: anc.seq,
				Depth: len(ancestors) - i,
			})
		}
		subSeq := 0
		for _, child := range nested {
			s.shredDynamicNode(child, spec, subDef, append(ancestors, self), &subSeq, st)
		}
	default:
		st.problemf("dynamic node %s (source %q) has neither a value nor nested nodes", name, source)
	}
}
