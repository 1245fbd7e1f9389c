// Package edgetable implements the edge-table baseline (Florescu &
// Kossman [17], as characterized in the paper's §6): the document is a
// directed graph stored as one row per edge, queries become self-joins —
// one per path level — and reconstruction chases parent pointers.
package edgetable

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Store is an edge-table document store.
type Store struct {
	Schema *xmlschema.Schema
	DB     *relstore.Database

	mu     sync.Mutex
	nextID int64
}

// New creates the edge table and its indexes.
func New(schema *xmlschema.Schema) (*Store, error) {
	db := relstore.NewDatabase()
	_, err := db.CreateTable("edges", []relstore.Column{
		{Name: "doc_id", Type: relstore.KInt, NotNull: true},
		{Name: "node_id", Type: relstore.KInt, NotNull: true},
		{Name: "parent_id", Type: relstore.KInt, NotNull: false},
		{Name: "ord", Type: relstore.KInt, NotNull: true},
		{Name: "tag", Type: relstore.KString, NotNull: true},
		{Name: "sval", Type: relstore.KString, NotNull: false},
		{Name: "nval", Type: relstore.KFloat, NotNull: false},
	},
		relstore.Index{Name: "edges_by_tag_sval", Cols: []string{"tag", "sval"}},
		relstore.Index{Name: "edges_by_tag_nval", Cols: []string{"tag", "nval"}},
		relstore.Index{Name: "edges_by_doc", Cols: []string{"doc_id"}},
		relstore.Index{Name: "edges_by_parent", Cols: []string{"doc_id", "parent_id"}},
		relstore.Index{Name: "edges_by_tag", Cols: []string{"tag"}},
	)
	if err != nil {
		return nil, err
	}
	return &Store{Schema: schema, DB: db}, nil
}

// Name implements baseline.Store.
func (s *Store) Name() string { return "edge" }

// Ingest implements baseline.Store: one row per element.
func (s *Store) Ingest(owner string, doc *xmldoc.Node) (int64, error) {
	_ = owner
	s.mu.Lock()
	s.nextID++
	docID := s.nextID
	s.mu.Unlock()
	edges := s.DB.MustTable("edges")
	nodeID := int64(0)
	var insert func(n *xmldoc.Node, parent int64, ord int) error
	insert = func(n *xmldoc.Node, parent int64, ord int) error {
		nodeID++
		id := nodeID
		sval := relstore.Null()
		nval := relstore.Null()
		if n.IsLeaf() {
			sval = relstore.Str(n.Text)
			if f, ok := parseFloat(n.Text); ok {
				nval = relstore.Float(f)
			}
		}
		parentVal := relstore.Null()
		if parent != 0 {
			parentVal = relstore.Int(parent)
		}
		_, err := edges.Insert(relstore.Row{
			relstore.Int(docID), relstore.Int(id), parentVal,
			relstore.Int(int64(ord)), relstore.Str(n.Tag), sval, nval,
		})
		if err != nil {
			return err
		}
		for i, c := range n.Children {
			if err := insert(c, id, i); err != nil {
				return err
			}
		}
		return nil
	}
	if err := insert(doc, 0, 0); err != nil {
		return 0, err
	}
	return docID, nil
}

// nodeRef identifies one element row.
type nodeRef struct {
	docID, nodeID int64
}

// Evaluate implements baseline.Store: each criteria level and element
// predicate becomes another probe into the edge table joined through
// parent pointers — the self-join chain the hybrid approach avoids.
func (s *Store) Evaluate(q *catalog.Query) ([]int64, error) {
	if len(q.Attrs) == 0 {
		return nil, fmt.Errorf("edgetable: empty query")
	}
	docs := map[int64]int{}
	for _, crit := range q.Attrs {
		matches, err := s.satisfying(crit, nil)
		if err != nil {
			return nil, err
		}
		seen := map[int64]bool{}
		for _, m := range matches {
			if !seen[m.docID] {
				seen[m.docID] = true
				docs[m.docID]++
			}
		}
	}
	var out []int64
	for d, n := range docs {
		if n == len(q.Attrs) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// satisfying returns instance nodes satisfying one criteria node, scoped
// below parents when given (nil = anywhere).
func (s *Store) satisfying(crit *catalog.AttrCriteria, parents []nodeRef) ([]nodeRef, error) {
	edges := s.DB.MustTable("edges")
	var cands []nodeRef
	var dynSpec *xmlschema.DynamicSpec
	for _, a := range s.Schema.Attributes {
		if a.IsDynamic {
			spec := a.Dynamic
			dynSpec = &spec
			break
		}
	}
	decl := s.Schema.AttributeByTag(crit.Name)
	structuralTop := crit.Source == "" && decl != nil && !decl.IsDynamic
	switch {
	case parents == nil && structuralTop:
		// Structural: nodes with the attribute tag.
		ids, err := edges.LookupEqual("edges_by_tag", relstore.Str(crit.Name))
		if err != nil {
			return nil, err
		}
		for _, rid := range ids {
			r := edges.Get(rid)
			if r == nil {
				continue
			}
			cands = append(cands, nodeRef{r[0].I, r[1].I})
		}
	case parents == nil:
		// Dynamic top: self-join chain container -> entity -> name/source.
		if dynSpec != nil {
			for _, a := range s.Schema.Attributes {
				if !a.IsDynamic {
					continue
				}
				found, err := s.dynamicTops(a.Tag, a.Dynamic, crit.Name, crit.Source)
				if err != nil {
					return nil, err
				}
				cands = append(cands, found...)
				break
			}
		}
	default:
		// Sub-attribute: structural interior descendants with the tag
		// (one parent-chase join per level) and/or dynamic node rows.
		if crit.Source == "" {
			ids, err := edges.LookupEqual("edges_by_tag", relstore.Str(crit.Name))
			if err != nil {
				return nil, err
			}
			var structural []nodeRef
			for _, rid := range ids {
				r := edges.Get(rid)
				if r == nil || !r[5].IsNull() { // leaf rows carry sval
					continue
				}
				structural = append(structural, nodeRef{r[0].I, r[1].I})
			}
			cands = append(cands, s.filterDescendants(structural, parents)...)
		}
		if dynSpec != nil {
			found, err := s.dynamicSubs(*dynSpec, crit.Name, crit.Source, parents)
			if err != nil {
				return nil, err
			}
			cands = append(cands, found...)
		}
	}
	// Element predicates: one more self-join per predicate.
	var out []nodeRef
	for _, c := range cands {
		ok := true
		for _, p := range crit.Elems {
			holds, err := s.elemHolds(c, p, dynSpec)
			if err != nil {
				return nil, err
			}
			if !holds {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, sub := range crit.Subs {
			subs, err := s.satisfying(sub, []nodeRef{c})
			if err != nil {
				return nil, err
			}
			if len(subs) == 0 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out, nil
}

// children returns the child rows of a node, ordered.
func (s *Store) children(ref nodeRef) []relstore.Row {
	edges := s.DB.MustTable("edges")
	ids, _ := edges.LookupEqual("edges_by_parent", relstore.Int(ref.docID), relstore.Int(ref.nodeID))
	rows := make([]relstore.Row, 0, len(ids))
	for _, rid := range ids {
		if r := edges.Get(rid); r != nil {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][3].I < rows[j][3].I })
	return rows
}

func (s *Store) childByTag(ref nodeRef, tag string) (relstore.Row, bool) {
	for _, r := range s.children(ref) {
		if r[4].S == tag {
			return r, true
		}
	}
	return nil, false
}

// dynamicTops finds container nodes whose entity name/source match.
func (s *Store) dynamicTops(containerTag string, spec xmlschema.DynamicSpec, name, source string) ([]nodeRef, error) {
	edges := s.DB.MustTable("edges")
	// Probe by the name value (most selective), then join upward:
	// nameTag row -> entity parent -> container parent.
	ids, err := edges.LookupEqual("edges_by_tag_sval", relstore.Str(spec.NameTag), relstore.Str(name))
	if err != nil {
		return nil, err
	}
	var out []nodeRef
	for _, rid := range ids {
		r := edges.Get(rid)
		if r == nil || r[2].IsNull() {
			continue
		}
		entity := nodeRef{r[0].I, r[2].I}
		er := s.getNode(entity)
		if er == nil || er[4].S != spec.EntityTag || er[2].IsNull() {
			continue
		}
		container := nodeRef{entity.docID, er[2].I}
		cr := s.getNode(container)
		if cr == nil || cr[4].S != containerTag {
			continue
		}
		if sr, ok := s.childByTag(entity, spec.SourceTag); !ok || sr[5].S != source {
			continue
		}
		out = append(out, container)
	}
	return out, nil
}

// dynamicSubs finds NodeTag descendants of the parents whose name/source
// match and which have nested NodeTag children.
func (s *Store) dynamicSubs(spec xmlschema.DynamicSpec, name, source string, parents []nodeRef) ([]nodeRef, error) {
	var out []nodeRef
	var walk func(ref nodeRef)
	walk = func(ref nodeRef) {
		for _, r := range s.children(ref) {
			if r[4].S != spec.NodeTag {
				continue
			}
			child := nodeRef{r[0].I, r[1].I}
			nm, _ := s.childByTag(child, spec.NodeNameTag)
			src, _ := s.childByTag(child, spec.NodeSourceTag)
			hasNested := false
			for _, cr := range s.children(child) {
				if cr[4].S == spec.NodeTag {
					hasNested = true
					break
				}
			}
			if hasNested && nm != nil && nm[5].S == name && (src == nil && source == "" || src != nil && src[5].S == source) {
				out = append(out, child)
			}
			walk(child)
		}
	}
	for _, p := range parents {
		walk(p)
	}
	return out, nil
}

func (s *Store) getNode(ref nodeRef) relstore.Row {
	edges := s.DB.MustTable("edges")
	ids, _ := edges.LookupEqual("edges_by_doc", relstore.Int(ref.docID))
	for _, rid := range ids {
		r := edges.Get(rid)
		if r != nil && r[1].I == ref.nodeID {
			return r
		}
	}
	return nil
}

// filterDescendants keeps candidates that are strict descendants of one
// of the parents (chasing parent pointers upward).
func (s *Store) filterDescendants(cands, parents []nodeRef) []nodeRef {
	parentSet := make(map[nodeRef]bool, len(parents))
	for _, p := range parents {
		parentSet[p] = true
	}
	var out []nodeRef
	for _, c := range cands {
		cur := c
		for {
			r := s.getNode(cur)
			if r == nil || r[2].IsNull() {
				break
			}
			up := nodeRef{cur.docID, r[2].I}
			if parentSet[up] {
				out = append(out, c)
				break
			}
			cur = up
		}
	}
	return out
}

// elemHolds checks one element predicate on one instance node.
func (s *Store) elemHolds(ref nodeRef, p catalog.ElemPred, dyn *xmlschema.DynamicSpec) (bool, error) {
	isDyn := false
	if dyn != nil {
		tag := ref.tagOf(s)
		decl := s.Schema.AttributeByTag(tag)
		isDyn = (decl != nil && decl.IsDynamic) || tag == dyn.NodeTag
	}
	if isDyn {
		// Dynamic instance: NodeTag children carrying name/source/value.
		for _, r := range s.children(ref) {
			if r[4].S != dyn.NodeTag {
				continue
			}
			child := nodeRef{r[0].I, r[1].I}
			nm, _ := s.childByTag(child, dyn.NodeNameTag)
			src, _ := s.childByTag(child, dyn.NodeSourceTag)
			if nm == nil || nm[5].S != p.Name {
				continue
			}
			if !(src == nil && p.Source == "" || src != nil && src[5].S == p.Source) {
				continue
			}
			if v, ok := s.childByTag(child, dyn.ValueTag); ok && valueRowMatches(v, p) {
				return true, nil
			}
		}
		return false, nil
	}
	// Structural: leaf children with the element tag; or the instance is
	// itself the leaf element.
	self := s.getNode(ref)
	if self != nil && !self[5].IsNull() && self[4].S == p.Name {
		return valueRowMatches(self, p), nil
	}
	for _, r := range s.children(ref) {
		if r[4].S == p.Name && !r[5].IsNull() && valueRowMatches(r, p) {
			return true, nil
		}
	}
	return false, nil
}

func (ref nodeRef) tagOf(s *Store) string {
	if r := s.getNode(ref); r != nil {
		return r[4].S
	}
	return ""
}

// valueRowMatches applies the predicate with the catalog's typed
// semantics (numeric query values use nval). OneOf matches any listed
// value.
func valueRowMatches(r relstore.Row, p catalog.ElemPred) bool {
	if len(p.OneOf) > 0 {
		for _, v := range p.OneOf {
			single := p
			single.OneOf = nil
			single.Value = v
			if valueRowMatches(r, single) {
				return true
			}
		}
		return false
	}
	if p.Value.K == relstore.KInt || p.Value.K == relstore.KFloat {
		if r[6].IsNull() {
			return false
		}
		f, _ := p.Value.AsFloat()
		return p.Op.Holds(relstore.Float(r[6].F), relstore.Float(f))
	}
	return p.Op.Holds(relstore.Str(r[5].S), relstore.Str(p.Value.AsString()))
}

// Fetch implements baseline.Store: reconstruct each document by grouping
// its edges and chasing parent pointers.
func (s *Store) Fetch(ids []int64) ([]catalog.Response, error) {
	edges := s.DB.MustTable("edges")
	var out []catalog.Response
	for _, docID := range ids {
		rowIDs, err := edges.LookupEqual("edges_by_doc", relstore.Int(docID))
		if err != nil {
			return nil, err
		}
		if len(rowIDs) == 0 {
			continue
		}
		nodes := make(map[int64]*xmldoc.Node, len(rowIDs))
		type link struct {
			parent int64
			ord    int64
			id     int64
		}
		var links []link
		var rootID int64
		for _, rid := range rowIDs {
			r := edges.Get(rid)
			if r == nil {
				continue
			}
			n := xmldoc.NewNode(r[4].S)
			if !r[5].IsNull() {
				n.Text = r[5].S
			}
			nodes[r[1].I] = n
			if r[2].IsNull() {
				rootID = r[1].I
			} else {
				links = append(links, link{parent: r[2].I, ord: r[3].I, id: r[1].I})
			}
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].parent != links[j].parent {
				return links[i].parent < links[j].parent
			}
			return links[i].ord < links[j].ord
		})
		for _, l := range links {
			nodes[l.parent].Append(nodes[l.id])
		}
		out = append(out, catalog.Response{ObjectID: docID, XML: nodes[rootID].String()})
	}
	return out, nil
}

// StorageBytes implements baseline.Store.
func (s *Store) StorageBytes() int64 { return s.DB.StorageBytes() }

func parseFloat(text string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
	return f, err == nil
}
