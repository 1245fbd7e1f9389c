package baseline_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/baseline/clobonly"
	"github.com/gridmeta/hybridcat/internal/baseline/edgetable"
	"github.com/gridmeta/hybridcat/internal/baseline/inlining"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/nativexml"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// randSchema generates a random annotated schema satisfying the §2
// partitioning rules, plus the dynamic definitions to register (when the
// schema includes a dynamic container).
type randSchema struct {
	schema   *xmlschema.Schema
	attrs    []*xmlschema.Node // structural attribute decls
	dynamic  bool
	dynDefs  []dynDef
	valPool  []string
	numPool  []int
	rng      *rand.Rand
	tagCount int
}

type dynDef struct {
	name, source string
	elems        []string
	sub          string // one nested sub-attribute name ("" = none)
	subElems     []string
}

func newRandSchema(seed int64) (*randSchema, error) {
	rs := &randSchema{
		rng:     rand.New(rand.NewSource(seed)),
		valPool: []string{"alpha", "beta", "gamma", "delta", "omega"},
		numPool: []int{10, 20, 30, 40},
	}
	s, root := xmlschema.New(fmt.Sprintf("rand%d", seed), rs.tag("root"))
	// 1-3 sections, each with 1-3 attributes.
	sections := 1 + rs.rng.Intn(3)
	for i := 0; i < sections; i++ {
		section := root.Add(rs.tag("sec"))
		nAttrs := 1 + rs.rng.Intn(3)
		for j := 0; j < nAttrs; j++ {
			attr := section.Add(rs.tag("att")).Attribute()
			if rs.rng.Intn(3) == 0 {
				attr.Repeat()
			}
			nElems := 1 + rs.rng.Intn(3)
			for k := 0; k < nElems; k++ {
				leaf := attr.Add(rs.tag("el"))
				if rs.rng.Intn(4) == 0 {
					leaf.Repeat()
				}
			}
			if rs.rng.Intn(2) == 0 {
				sub := attr.Add(rs.tag("sub"))
				for k := 0; k < 1+rs.rng.Intn(2); k++ {
					sub.Add(rs.tag("sel"))
				}
			}
			rs.attrs = append(rs.attrs, attr)
		}
	}
	// Optionally a dynamic container with two definitions.
	if rs.rng.Intn(2) == 0 {
		rs.dynamic = true
		root.Add(rs.tag("dynsec")).Add("detailed").Repeat().DynamicContainer(xmlschema.FGDCDynamicSpec)
		for d := 0; d < 2; d++ {
			def := dynDef{
				name:   fmt.Sprintf("model%d", d),
				source: []string{"ARPS", "WRF"}[d%2],
				elems:  []string{"p0", "p1"},
			}
			if rs.rng.Intn(2) == 0 {
				def.sub = "nested"
				def.subElems = []string{"q0"}
			}
			rs.dynDefs = append(rs.dynDefs, def)
		}
	}
	if err := s.Finalize(); err != nil {
		return nil, err
	}
	rs.schema = s
	return rs, nil
}

func (rs *randSchema) tag(prefix string) string {
	rs.tagCount++
	return fmt.Sprintf("%s%02d", prefix, rs.tagCount)
}

func (rs *randSchema) value() string {
	if rs.rng.Intn(2) == 0 {
		return rs.valPool[rs.rng.Intn(len(rs.valPool))]
	}
	return fmt.Sprint(rs.numPool[rs.rng.Intn(len(rs.numPool))])
}

// document generates one random conforming document. Interior sections
// that would be empty are pruned: the hybrid design reconstructs
// documents from attribute CLOBs plus required ancestors, so an interior
// element with no attribute content leaves no trace (and carries no
// metadata).
func (rs *randSchema) document() *xmldoc.Node {
	var build func(decl *xmlschema.Node) *xmldoc.Node
	build = func(decl *xmlschema.Node) *xmldoc.Node {
		n := xmldoc.NewNode(decl.Tag)
		if decl.IsDynamic {
			// Pick a registered definition.
			def := rs.dynDefs[rs.rng.Intn(len(rs.dynDefs))]
			ent := xmldoc.NewNode("enttyp")
			ent.Append(xmldoc.NewLeaf("enttypl", def.name), xmldoc.NewLeaf("enttypds", def.source))
			n.Append(ent)
			for _, e := range def.elems {
				if rs.rng.Intn(4) == 0 {
					continue
				}
				a := xmldoc.NewNode("attr")
				a.Append(xmldoc.NewLeaf("attrlabl", e),
					xmldoc.NewLeaf("attrdefs", def.source),
					xmldoc.NewLeaf("attrv", rs.value()))
				n.Append(a)
			}
			if def.sub != "" && rs.rng.Intn(2) == 0 {
				sub := xmldoc.NewNode("attr")
				sub.Append(xmldoc.NewLeaf("attrlabl", def.sub), xmldoc.NewLeaf("attrdefs", def.source))
				for _, e := range def.subElems {
					a := xmldoc.NewNode("attr")
					a.Append(xmldoc.NewLeaf("attrlabl", e),
						xmldoc.NewLeaf("attrdefs", def.source),
						xmldoc.NewLeaf("attrv", rs.value()))
					sub.Append(a)
				}
				n.Append(sub)
			}
			return n
		}
		for _, c := range decl.Children {
			if len(c.Children) == 0 && !c.IsAttribute && !c.IsDynamic {
				// Leaf element: include with 80% probability, repeat when
				// allowed.
				count := 0
				if rs.rng.Intn(5) != 0 {
					count = 1
					if c.Repeats && rs.rng.Intn(2) == 0 {
						count = 2
					}
				}
				for i := 0; i < count; i++ {
					n.Append(xmldoc.NewLeaf(c.Tag, rs.value()))
				}
				continue
			}
			count := 1
			if c.IsAttribute || c.IsDynamic {
				if rs.rng.Intn(5) == 0 {
					count = 0 // optional attribute absent
				} else if c.Repeats && rs.rng.Intn(2) == 0 {
					count = 2
				}
			}
			for i := 0; i < count; i++ {
				if sub := build(c); sub != nil {
					n.Append(sub)
				}
			}
		}
		if decl.Parent != nil && len(n.Children) == 0 && n.Text == "" {
			// Prune empty instances: an empty interior or attribute
			// carries no metadata, and the inlining baseline cannot even
			// represent present-but-empty for inlined sections.
			return nil
		}
		return n
	}
	doc := build(rs.schema.Root)
	if doc == nil {
		doc = xmldoc.NewNode(rs.schema.Root.Tag)
	}
	return doc
}

// query generates a random query against the schema.
func (rs *randSchema) query() *catalog.Query {
	q := &catalog.Query{}
	nTop := 1 + rs.rng.Intn(2)
	for i := 0; i < nTop; i++ {
		if rs.dynamic && rs.rng.Intn(3) == 0 {
			def := rs.dynDefs[rs.rng.Intn(len(rs.dynDefs))]
			crit := q.Attr(def.name, def.source)
			if rs.rng.Intn(2) == 0 {
				crit.AddElem(def.elems[rs.rng.Intn(len(def.elems))], def.source, rs.op(), rs.queryValue())
			}
			if def.sub != "" && rs.rng.Intn(2) == 0 {
				sub := &catalog.AttrCriteria{Name: def.sub, Source: def.source}
				if rs.rng.Intn(2) == 0 {
					sub.AddElem(def.subElems[0], def.source, rs.op(), rs.queryValue())
				}
				crit.AddSub(sub)
			}
			continue
		}
		decl := rs.attrs[rs.rng.Intn(len(rs.attrs))]
		crit := q.Attr(decl.Tag, "")
		// Element predicates on the attribute's leaves.
		var leaves []*xmlschema.Node
		var subs []*xmlschema.Node
		for _, c := range decl.Children {
			if len(c.Children) == 0 {
				leaves = append(leaves, c)
			} else {
				subs = append(subs, c)
			}
		}
		if len(leaves) > 0 && rs.rng.Intn(3) != 0 {
			crit.AddElem(leaves[rs.rng.Intn(len(leaves))].Tag, "", rs.op(), rs.queryValue())
		}
		if len(subs) > 0 && rs.rng.Intn(3) == 0 {
			sub := &catalog.AttrCriteria{Name: subs[0].Tag}
			if rs.rng.Intn(2) == 0 {
				sub.AddElem(subs[0].Children[0].Tag, "", rs.op(), rs.queryValue())
			}
			crit.AddSub(sub)
		}
	}
	return q
}

func (rs *randSchema) op() relstore.CmpOp {
	return []relstore.CmpOp{relstore.OpEq, relstore.OpEq, relstore.OpGe, relstore.OpLe, relstore.OpNe}[rs.rng.Intn(5)]
}

func (rs *randSchema) queryValue() relstore.Value {
	if rs.rng.Intn(2) == 0 {
		return relstore.Str(rs.valPool[rs.rng.Intn(len(rs.valPool))])
	}
	return relstore.Int(int64(rs.numPool[rs.rng.Intn(len(rs.numPool))]))
}

// buildCatalog instantiates the hybrid catalog over the random schema
// and registers the dynamic definitions.
func (rs *randSchema) buildCatalog(opts catalog.Options) (*catalog.Catalog, error) {
	cat, err := catalog.Open(rs.schema, opts)
	if err != nil {
		return nil, err
	}
	for _, def := range rs.dynDefs {
		d, err := cat.RegisterAttr(def.name, def.source, 0, "")
		if err != nil {
			return nil, err
		}
		for _, e := range def.elems {
			if _, err := cat.RegisterElem(e, def.source, d.ID, core.DTString, ""); err != nil {
				return nil, err
			}
		}
		if def.sub != "" {
			sd, err := cat.RegisterAttr(def.sub, def.source, d.ID, "")
			if err != nil {
				return nil, err
			}
			for _, e := range def.subElems {
				if _, err := cat.RegisterElem(e, def.source, sd.ID, core.DTString, ""); err != nil {
					return nil, err
				}
			}
		}
	}
	return cat, nil
}

// buildAllStores instantiates every store over the random schema,
// registering the dynamic definitions on the hybrid catalog.
func (rs *randSchema) buildAllStores(t *testing.T) []baseline.Store {
	t.Helper()
	cat, err := rs.buildCatalog(catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inl, err := inlining.New(rs.schema)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := edgetable.New(rs.schema)
	if err != nil {
		t.Fatal(err)
	}
	clob, err := clobonly.New(rs.schema)
	if err != nil {
		t.Fatal(err)
	}
	return []baseline.Store{
		baseline.Adapter{C: cat}, inl, edge, clob, nativexml.New(rs.schema),
	}
}

// hasAttrContent reports whether the document carries at least one
// schema attribute instance; documents without one are rejected by the
// hybrid shredder.
func (rs *randSchema) hasAttrContent(doc *xmldoc.Node) bool {
	found := false
	doc.Walk(func(n *xmldoc.Node) bool {
		if d := rs.schema.AttributeByTag(n.Tag); d != nil {
			found = true
			return false
		}
		return true
	})
	return found
}

// FuzzConcurrentIngestEvaluate interleaves a writer — ingesting random
// conforming documents as "alice" and publishing a byte-selected subset
// — with concurrent Figure-4 evaluations. The invariants are the
// privacy and progress guarantees the reader/writer lock split must
// preserve under race: no evaluation
// panics or errors, a superuser evaluation never reports an object ID
// that no ingest could have produced yet, and an evaluation by a
// stranger who owns nothing only ever reports objects whose publication
// had already been initiated.
func FuzzConcurrentIngestEvaluate(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(3), []byte{0xff, 0x00, 0x81, 0x42, 0x10, 0x3c})
	f.Add(int64(7), []byte("publish everything"))
	f.Add(int64(11), []byte{1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) == 0 {
			t.Skip("no operations")
		}
		if len(ops) > 24 {
			ops = ops[:24]
		}
		rs, err := newRandSchema(seed)
		if err != nil {
			t.Skip("degenerate schema")
		}
		cat, err := rs.buildCatalog(catalog.Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Pre-generate documents and queries: rs.rng is not safe for
		// concurrent use, so all randomness happens before the race.
		var docs []*xmldoc.Node
		var queries []*catalog.Query
		for attempts := 0; len(docs) < len(ops) && attempts < 50*len(ops); attempts++ {
			if doc := rs.document(); rs.hasAttrContent(doc) {
				docs = append(docs, doc)
			}
		}
		if len(docs) == 0 {
			t.Skip("schema generates no shreddable documents")
		}
		for i := 0; i < len(ops); i++ {
			queries = append(queries, rs.query())
		}
		// Per-goroutine query copies: Owner differs and the shared
		// criteria trees are read-only during evaluation.
		super := make([]*catalog.Query, len(queries))
		stranger := make([]*catalog.Query, len(queries))
		for i, q := range queries {
			sq, xq := *q, *q
			sq.Owner, xq.Owner = "", "mallory"
			super[i], stranger[i] = &sq, &xq
		}

		var (
			started    atomic.Int64 // upper bound on assigned object IDs
			pubMu      sync.Mutex
			publishing = map[int64]bool{} // marked before SetPublished commits
		)
		done := make(chan struct{})
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			defer close(done)
			for i, b := range ops {
				started.Add(1)
				id, err := cat.Ingest("alice", docs[i%len(docs)].Clone())
				if err != nil {
					t.Errorf("ingest %d: %v", i, err)
					return
				}
				if b&1 == 1 {
					pubMu.Lock()
					publishing[id] = true
					pubMu.Unlock()
					if err := cat.SetPublished(id, true); err != nil {
						t.Errorf("publish %d: %v", id, err)
						return
					}
				}
			}
		}()

		var rwg sync.WaitGroup
		for r := 0; r < 2; r++ {
			rwg.Add(1)
			go func(r int) {
				defer rwg.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					q := super[(i+r)%len(super)]
					ids, err := cat.Evaluate(q)
					if err != nil {
						t.Errorf("reader %d: superuser evaluate: %v", r, err)
						return
					}
					bound := started.Load()
					for _, id := range ids {
						if id < 1 || id > bound {
							t.Errorf("reader %d: result ID %d outside any started ingest (bound %d)", r, id, bound)
							return
						}
					}
					xids, err := cat.Evaluate(stranger[(i+r)%len(stranger)])
					if err != nil {
						t.Errorf("reader %d: stranger evaluate: %v", r, err)
						return
					}
					pubMu.Lock()
					for _, id := range xids {
						if !publishing[id] {
							t.Errorf("reader %d: stranger saw unpublished object %d", r, id)
						}
					}
					pubMu.Unlock()
				}
			}(r)
		}
		rwg.Wait()
		wwg.Wait()
	})
}

// TestRandomSchemasAllStoresAgree is the repository's strongest
// correctness property: over randomly generated schemas, corpora, and
// query trees, every store must answer identically to the DOM oracle and
// every store must reproduce the ingested documents.
func TestRandomSchemasAllStoresAgree(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rs, err := newRandSchema(seed)
			if err != nil {
				t.Fatalf("schema generation: %v", err)
			}
			stores := rs.buildAllStores(t)
			nDocs := 8 + rs.rng.Intn(8)
			docs := make([]*xmldoc.Node, 0, nDocs)
			for i := 0; i < nDocs; i++ {
				doc := rs.document()
				// Documents with no attribute content are rejected by the
				// hybrid shredder; regenerate those.
				hasClob := false
				doc.Walk(func(n *xmldoc.Node) bool {
					if d := rs.schema.AttributeByTag(n.Tag); d != nil {
						hasClob = true
						return false
					}
					return true
				})
				if !hasClob {
					i--
					continue
				}
				docs = append(docs, doc)
			}
			for _, st := range stores {
				for i, d := range docs {
					if _, err := st.Ingest("u", d.Clone()); err != nil {
						t.Fatalf("%s: ingest %d: %v\n%s", st.Name(), i, err, d.Pretty())
					}
				}
			}
			// Round trips.
			for _, st := range stores {
				for i, d := range docs {
					resp, err := st.Fetch([]int64{int64(i + 1)})
					if err != nil || len(resp) != 1 {
						t.Fatalf("%s: fetch %d: %v", st.Name(), i+1, err)
					}
					got, err := xmldoc.ParseString(resp[0].XML)
					if err != nil {
						t.Fatalf("%s: doc %d: %v", st.Name(), i+1, err)
					}
					if !xmldoc.Equal(d, got) {
						t.Fatalf("%s: doc %d round trip: %s\nwant:\n%s\ngot:\n%s",
							st.Name(), i+1, xmldoc.Diff(d, got), d.Pretty(), got.Pretty())
					}
				}
			}
			// Query agreement with the oracle.
			for qi := 0; qi < 12; qi++ {
				q := rs.query()
				var want []int64
				for i, d := range docs {
					if baseline.DocMatches(rs.schema, d, q) {
						want = append(want, int64(i+1))
					}
				}
				for _, st := range stores {
					got, err := st.Evaluate(q)
					if err != nil {
						t.Fatalf("%s: query %d: %v", st.Name(), qi, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						data, _ := catalog.MarshalQueryJSON(q)
						t.Fatalf("%s: query %d: got %v, oracle %v\nquery: %s",
							st.Name(), qi, got, want, data)
					}
				}
			}
		})
	}
}
