package inlining

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

// Store is a shared-inlining document store.
type Store struct {
	Schema *xmlschema.Schema
	DB     *relstore.Database

	frags  []*fragment
	byName map[string]*fragment
	root   *fragment

	mu     sync.Mutex
	nextID int64 // doc IDs
	fragID int64 // fragment row IDs, global
}

// New derives the fragment tables from the schema and creates them with
// per-column B-tree indexes (string and numeric shadow).
func New(schema *xmlschema.Schema) (*Store, error) {
	s := &Store{
		Schema: schema,
		DB:     relstore.NewDatabase(),
		byName: make(map[string]*fragment),
	}
	s.frags = buildFragments(buildPhysical(schema.Root))
	s.root = s.frags[0]
	for _, f := range s.frags {
		s.byName[f.name] = f
		cols := []relstore.Column{
			{Name: "doc_id", Type: relstore.KInt, NotNull: true},
			{Name: "frag_id", Type: relstore.KInt, NotNull: true},
			{Name: "parent_table", Type: relstore.KString},
			{Name: "parent_id", Type: relstore.KInt},
			{Name: "ord", Type: relstore.KInt, NotNull: true},
		}
		indexes := []relstore.Index{
			{Name: f.name + "_pk", Unique: true, Cols: []string{"frag_id"}},
			{Name: f.name + "_by_doc", Cols: []string{"doc_id"}},
			{Name: f.name + "_by_parent", Cols: []string{"parent_table", "parent_id"}},
		}
		for _, key := range f.colOrder {
			base := colName(key)
			cols = append(cols,
				relstore.Column{Name: base, Type: relstore.KString},
				relstore.Column{Name: base + "__n", Type: relstore.KFloat},
			)
			indexes = append(indexes,
				relstore.Index{Name: f.name + "_ix_" + base, Cols: []string{base}},
				relstore.Index{Name: f.name + "_ixn_" + base, Cols: []string{base + "__n"}},
			)
		}
		if _, err := s.DB.CreateTable(f.name, cols, indexes...); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func colName(relPath string) string {
	return strings.NewReplacer("/", "_", "-", "_").Replace(relPath)
}

// Name implements baseline.Store.
func (s *Store) Name() string { return "inlining" }

// FragmentNames lists the derived fragment tables (benchmark reporting:
// the paper's point is how many fragments the dynamic region forces).
func (s *Store) FragmentNames() []string {
	out := make([]string, len(s.frags))
	for i, f := range s.frags {
		out[i] = f.name
	}
	return out
}

// Ingest implements baseline.Store: the document shreds losslessly into
// the fragment tables, with per-document sibling order in ord.
func (s *Store) Ingest(owner string, doc *xmldoc.Node) (int64, error) {
	_ = owner
	if doc.Tag != s.Schema.Root.Tag {
		return 0, fmt.Errorf("inlining: root <%s> does not match schema", doc.Tag)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	docID := s.nextID
	if err := s.insertFragment(s.root, docID, "", 0, 0, doc); err != nil {
		return 0, err
	}
	return docID, nil
}

// insertFragment stores one instance of fragment f rooted at docNode.
func (s *Store) insertFragment(f *fragment, docID int64, parentTable string, parentID int64, ord int, docNode *xmldoc.Node) error {
	s.fragID++
	id := s.fragID
	t := s.DB.MustTable(f.name)
	row := make(relstore.Row, len(t.Schema.Columns))
	row[cDocID] = relstore.Int(docID)
	row[cFragID] = relstore.Int(id)
	row[cOrd] = relstore.Int(int64(ord))
	if parentTable != "" {
		row[cParentTable] = relstore.Str(parentTable)
		row[cParentID] = relstore.Int(parentID)
	}
	if f.valueFrag {
		setValue(row, cFirstData, docNode.Text)
	} else {
		// Inlined leaf columns: resolve each relative path.
		for _, key := range f.colOrder {
			if leaf := resolvePath(docNode, strings.Split(key, "/")); leaf != nil {
				setValue(row, f.cols[key], leaf.Text)
			}
		}
	}
	if _, err := t.Insert(row); err != nil {
		return err
	}
	// Child fragments: all instances at their relative paths, in sibling
	// order.
	for i, child := range f.children {
		rel := strings.Split(f.childPath[i], "/")
		for j, inst := range resolveAll(docNode, rel) {
			if err := s.insertFragment(child, docID, f.name, id, j, inst); err != nil {
				return err
			}
		}
	}
	return nil
}

func setValue(row relstore.Row, pos int, text string) {
	row[pos] = relstore.Str(text)
	if fl, err := strconv.ParseFloat(strings.TrimSpace(text), 64); err == nil {
		row[pos+1] = relstore.Float(fl)
	}
}

// resolvePath returns the first node at the relative path below n.
func resolvePath(n *xmldoc.Node, path []string) *xmldoc.Node {
	cur := n
	for _, tag := range path {
		cur = cur.Child(tag)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// resolveAll returns every node at the relative path, in document order.
func resolveAll(n *xmldoc.Node, path []string) []*xmldoc.Node {
	cur := []*xmldoc.Node{n}
	for _, tag := range path {
		var next []*xmldoc.Node
		for _, c := range cur {
			next = append(next, c.ChildrenByTag(tag)...)
		}
		cur = next
	}
	return cur
}

// instance identifies one fragment row during query evaluation. For
// attributes inlined into a larger fragment, prefix carries the relative
// path from the fragment root to the attribute element.
type instance struct {
	frag    *fragment
	fragID  int64
	docID   int64
	prefix  string
	dynamic bool
}

// Evaluate implements baseline.Store: structural criteria resolve to
// fragment columns or child value fragments; dynamic criteria walk the
// recursive node fragment with one join per level.
func (s *Store) Evaluate(q *catalog.Query) ([]int64, error) {
	if len(q.Attrs) == 0 {
		return nil, fmt.Errorf("inlining: empty query")
	}
	docs := map[int64]int{}
	for _, crit := range q.Attrs {
		insts, err := s.satisfying(crit, nil)
		if err != nil {
			return nil, err
		}
		seen := map[int64]bool{}
		for _, in := range insts {
			if !seen[in.docID] {
				seen[in.docID] = true
				docs[in.docID]++
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

// locateStructural finds the fragment and in-fragment prefix of a
// structural attribute tag.
func (s *Store) locateStructural(tag string) (f *fragment, prefix string, ok bool) {
	decl := s.Schema.AttributeByTag(tag)
	if decl == nil || decl.IsDynamic {
		return nil, "", false
	}
	// Absolute path below the root element.
	var path []string
	for n := decl; n.Parent != nil; n = n.Parent {
		path = append([]string{n.Tag}, path...)
	}
	f = s.root
	for {
		// Does a child fragment's path prefix the remaining path?
		advanced := false
		for i, childPath := range f.childPath {
			cp := strings.Split(childPath, "/")
			if len(cp) <= len(path) && strings.Join(path[:len(cp)], "/") == childPath {
				f = f.children[i]
				path = path[len(cp):]
				advanced = true
				break
			}
		}
		if !advanced {
			return f, strings.Join(path, "/"), true
		}
		if len(path) == 0 {
			return f, "", true
		}
	}
}

// satisfying returns the instances satisfying one criteria node. parents
// scopes the search below given instances (nil = whole store).
func (s *Store) satisfying(crit *catalog.AttrCriteria, parents []instance) ([]instance, error) {
	var cands []instance
	if parents == nil {
		if f, prefix, ok := s.locateStructural(crit.Name); ok && crit.Source == "" {
			t := s.DB.MustTable(f.name)
			t.Scan(func(_ int64, r relstore.Row) bool {
				in := instance{frag: f, fragID: r[cFragID].I, docID: r[cDocID].I, prefix: prefix}
				// An attribute inlined into a wider fragment is present
				// only when data exists under its prefix (optional
				// sections leave the columns NULL).
				if prefix == "" || s.present(in, r) {
					cands = append(cands, in)
				}
				return true
			})
		} else {
			found, err := s.dynamicTops(crit)
			if err != nil {
				return nil, err
			}
			cands = found
		}
	} else {
		// Sub-attribute below parents.
		found, err := s.subCandidates(crit, parents)
		if err != nil {
			return nil, err
		}
		cands = found
	}
	var out []instance
	for _, c := range cands {
		ok := true
		for _, p := range crit.Elems {
			holds, err := s.elemHolds(c, p, c.dynamic)
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
			subs, err := s.satisfying(sub, []instance{c})
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

// dynamicFragments returns the container fragment and its recursive node
// fragment.
func (s *Store) dynamicFragments() (container, node *fragment, spec xmlschema.DynamicSpec, err error) {
	for _, a := range s.Schema.Attributes {
		if !a.IsDynamic {
			continue
		}
		spec = a.Dynamic
		f, _, okk := func() (*fragment, string, bool) {
			// The container fragment is the one whose node tag matches.
			for _, fr := range s.frags {
				if fr.node.tag == a.Tag {
					return fr, "", true
				}
			}
			return nil, "", false
		}()
		if !okk {
			return nil, nil, spec, fmt.Errorf("inlining: no fragment for dynamic container %s", a.Tag)
		}
		for _, child := range f.children {
			if child.recursive {
				return f, child, spec, nil
			}
		}
		return nil, nil, spec, fmt.Errorf("inlining: dynamic container %s has no recursive fragment", a.Tag)
	}
	return nil, nil, spec, fmt.Errorf("inlining: schema has no dynamic container")
}

// dynamicTops finds container rows whose entity identity matches.
func (s *Store) dynamicTops(crit *catalog.AttrCriteria) ([]instance, error) {
	container, _, spec, err := s.dynamicFragments()
	if err != nil {
		return nil, err
	}
	t := s.DB.MustTable(container.name)
	nameCol := colName(spec.EntityTag + "/" + spec.NameTag)
	ids, err := t.LookupEqual(container.name+"_ix_"+nameCol, relstore.Str(crit.Name))
	if err != nil {
		return nil, err
	}
	srcPos, okSrc := container.cols[spec.EntityTag+"/"+spec.SourceTag]
	var out []instance
	for _, rid := range ids {
		r := t.Get(rid)
		if r == nil {
			continue
		}
		if okSrc && r[srcPos].AsString() != crit.Source {
			continue
		}
		out = append(out, instance{frag: container, fragID: r[cFragID].I, docID: r[cDocID].I, dynamic: true})
	}
	return out, nil
}

// subCandidates finds sub-attribute instances below parents: dynamic node
// rows (any depth, one join per level) when the parent is dynamic, or
// structural inlined prefixes otherwise.
func (s *Store) subCandidates(crit *catalog.AttrCriteria, parents []instance) ([]instance, error) {
	var out []instance
	var dynParents, structParents []instance
	for _, p := range parents {
		if p.dynamic {
			dynParents = append(dynParents, p)
		} else {
			structParents = append(structParents, p)
		}
	}
	if len(dynParents) > 0 {
		_, nodeFrag, spec, err := s.dynamicFragments()
		if err != nil {
			return nil, err
		}
		t := s.DB.MustTable(nodeFrag.name)
		namePos := nodeFrag.cols[spec.NodeNameTag]
		srcPos := nodeFrag.cols[spec.NodeSourceTag]
		frontier := dynParents
		for len(frontier) > 0 {
			var next []instance
			for _, p := range frontier {
				ids, err := t.LookupEqual(nodeFrag.name+"_by_parent", relstore.Str(p.frag.name), relstore.Int(p.fragID))
				if err != nil {
					return nil, err
				}
				for _, rid := range ids {
					r := t.Get(rid)
					if r == nil {
						continue
					}
					child := instance{frag: nodeFrag, fragID: r[cFragID].I, docID: r[cDocID].I, dynamic: true}
					if r[namePos].AsString() == crit.Name && r[srcPos].AsString() == crit.Source && s.hasNodeChildren(nodeFrag, child) {
						out = append(out, child)
					}
					next = append(next, child)
				}
			}
			frontier = next
		}
	}
	// Structural sub-attribute: a deeper inlined prefix of the same
	// fragment row (single-occurrence interiors inline with their
	// parent).
	if crit.Source == "" {
		for _, p := range structParents {
			prefix := crit.Name
			if p.prefix != "" {
				prefix = p.prefix + "/" + crit.Name
			}
			// The prefix must exist in the schema and carry data in this
			// row.
			in := instance{frag: p.frag, fragID: p.fragID, docID: p.docID, prefix: prefix}
			if s.prefixExists(p.frag, prefix) && s.present(in, nil) {
				out = append(out, in)
			}
		}
	}
	return out, nil
}

// present reports whether the instance's inlined prefix carries any data:
// a non-NULL column under the prefix or a child-fragment row anchored
// below it. row may be pre-fetched or nil.
func (s *Store) present(in instance, row relstore.Row) bool {
	if row == nil {
		row = s.rowByFragID(in.frag, in.fragID)
		if row == nil {
			return false
		}
	}
	pre := in.prefix + "/"
	for _, key := range in.frag.colOrder {
		if strings.HasPrefix(key, pre) && !row[in.frag.cols[key]].IsNull() {
			return true
		}
	}
	for i, cp := range in.frag.childPath {
		if !strings.HasPrefix(cp, pre) {
			continue
		}
		child := in.frag.children[i]
		ct := s.DB.MustTable(child.name)
		ids, _ := ct.LookupEqual(child.name+"_by_parent", relstore.Str(in.frag.name), relstore.Int(in.fragID))
		if len(ids) > 0 {
			return true
		}
	}
	return false
}

func (s *Store) prefixExists(f *fragment, prefix string) bool {
	pre := prefix + "/"
	for _, key := range f.colOrder {
		if strings.HasPrefix(key, pre) {
			return true
		}
	}
	for _, cp := range f.childPath {
		if strings.HasPrefix(cp, pre) {
			return true
		}
	}
	return false
}

func (s *Store) hasNodeChildren(nodeFrag *fragment, in instance) bool {
	t := s.DB.MustTable(nodeFrag.name)
	ids, _ := t.LookupEqual(nodeFrag.name+"_by_parent", relstore.Str(nodeFrag.name), relstore.Int(in.fragID))
	return len(ids) > 0
}

// elemHolds applies one element predicate to an instance.
func (s *Store) elemHolds(in instance, p catalog.ElemPred, dynamic bool) (bool, error) {
	if dynamic {
		_, nodeFrag, spec, err := s.dynamicFragments()
		if err != nil {
			return false, err
		}
		t := s.DB.MustTable(nodeFrag.name)
		ids, err := t.LookupEqual(nodeFrag.name+"_by_parent", relstore.Str(in.frag.name), relstore.Int(in.fragID))
		if err != nil {
			return false, err
		}
		namePos := nodeFrag.cols[spec.NodeNameTag]
		srcPos := nodeFrag.cols[spec.NodeSourceTag]
		valPos := nodeFrag.cols[spec.ValueTag]
		for _, rid := range ids {
			r := t.Get(rid)
			if r == nil || r[namePos].AsString() != p.Name || r[srcPos].AsString() != p.Source {
				continue
			}
			if predOnValue(r[valPos], r[valPos+1], p) {
				return true, nil
			}
		}
		return false, nil
	}
	key := p.Name
	if in.prefix != "" {
		key = in.prefix + "/" + p.Name
	}
	if pos, ok := in.frag.cols[key]; ok {
		r := s.rowByFragID(in.frag, in.fragID)
		if r == nil {
			return false, nil
		}
		return predOnValue(r[pos], r[pos+1], p), nil
	}
	// A repeating leaf lives in a child value fragment.
	for i, cp := range in.frag.childPath {
		if cp != key || !in.frag.children[i].valueFrag {
			continue
		}
		child := in.frag.children[i]
		ct := s.DB.MustTable(child.name)
		ids, err := ct.LookupEqual(child.name+"_by_parent", relstore.Str(in.frag.name), relstore.Int(in.fragID))
		if err != nil {
			return false, err
		}
		for _, rid := range ids {
			r := ct.Get(rid)
			if r != nil && predOnValue(r[cFirstData], r[cFirstData+1], p) {
				return true, nil
			}
		}
		return false, nil
	}
	return false, nil
}

func (s *Store) rowByFragID(f *fragment, fragID int64) relstore.Row {
	t := s.DB.MustTable(f.name)
	ids, _ := t.LookupEqual(f.name+"_pk", relstore.Int(fragID))
	for _, rid := range ids {
		if r := t.Get(rid); r != nil {
			return r
		}
	}
	return nil
}

func predOnValue(sval, nval relstore.Value, p catalog.ElemPred) bool {
	if sval.IsNull() {
		return false
	}
	if len(p.OneOf) > 0 {
		for _, v := range p.OneOf {
			single := p
			single.OneOf = nil
			single.Value = v
			if predOnValue(sval, nval, single) {
				return true
			}
		}
		return false
	}
	if p.Value.K == relstore.KInt || p.Value.K == relstore.KFloat {
		if nval.IsNull() {
			return false
		}
		f, _ := p.Value.AsFloat()
		return p.Op.Holds(relstore.Float(nval.F), relstore.Float(f))
	}
	return p.Op.Holds(relstore.Str(sval.AsString()), relstore.Str(p.Value.AsString()))
}

// Fetch implements baseline.Store: documents are reconstructed by
// re-joining the fragments in schema order with per-document sibling
// order.
func (s *Store) Fetch(ids []int64) ([]catalog.Response, error) {
	var out []catalog.Response
	for _, docID := range ids {
		t := s.DB.MustTable(s.root.name)
		rowIDs, err := t.LookupEqual(s.root.name+"_by_doc", relstore.Int(docID))
		if err != nil {
			return nil, err
		}
		if len(rowIDs) == 0 {
			continue
		}
		r := t.Get(rowIDs[0])
		node, err := s.reconstruct(s.root, r, docID)
		if err != nil {
			return nil, err
		}
		out = append(out, catalog.Response{ObjectID: docID, XML: node.String()})
	}
	return out, nil
}

// reconstruct rebuilds the subtree for one fragment row by walking the
// physical schema tree, so inlined leaves and child-fragment instances
// interleave in schema order; per-document sibling order of repeated
// instances comes from the ord column.
func (s *Store) reconstruct(f *fragment, row relstore.Row, docID int64) (*xmldoc.Node, error) {
	root := xmldoc.NewNode(f.node.tag)
	if f.valueFrag {
		root.Text = row[cFirstData].AsString()
		return root, nil
	}
	if err := s.fillNode(f, row, f.node, root, nil); err != nil {
		return nil, err
	}
	if f.node.selfRec {
		if err := s.appendFragmentRows(f, row, f.node.tag, root); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// fillNode emits the children of physical node pn into element el. rel is
// the path from the fragment root to pn.
func (s *Store) fillNode(f *fragment, row relstore.Row, pn *physNode, el *xmldoc.Node, rel []string) error {
	for _, c := range pn.children {
		crel := append(append([]string{}, rel...), c.tag)
		key := strings.Join(crel, "/")
		switch {
		case c.selfRec || c.repeats:
			if err := s.appendFragmentRows(f, row, key, el); err != nil {
				return err
			}
		case c.leaf():
			if pos, ok := f.cols[key]; ok && !row[pos].IsNull() {
				el.Append(xmldoc.NewLeaf(c.tag, row[pos].S))
			}
		default:
			childEl := xmldoc.NewNode(c.tag)
			if err := s.fillNode(f, row, c, childEl, crel); err != nil {
				return err
			}
			// Absent optional sections leave no children; skip them.
			if len(childEl.Children) > 0 {
				el.Append(childEl)
			}
		}
	}
	return nil
}

// appendFragmentRows appends the instances of the child fragment at the
// given relative path, in per-document sibling order.
func (s *Store) appendFragmentRows(f *fragment, row relstore.Row, key string, el *xmldoc.Node) error {
	idx := -1
	for i, cp := range f.childPath {
		if cp == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	child := f.children[idx]
	ct := s.DB.MustTable(child.name)
	ids, err := ct.LookupEqual(child.name+"_by_parent", relstore.Str(f.name), relstore.Int(row[cFragID].I))
	if err != nil {
		return err
	}
	rows := make([]relstore.Row, 0, len(ids))
	for _, rid := range ids {
		if r := ct.Get(rid); r != nil {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a][cOrd].I < rows[b][cOrd].I })
	for _, cr := range rows {
		sub, err := s.reconstruct(child, cr, row[cDocID].I)
		if err != nil {
			return err
		}
		el.Append(sub)
	}
	return nil
}

// StorageBytes implements baseline.Store.
func (s *Store) StorageBytes() int64 { return s.DB.StorageBytes() }
