package bench

import (
	"fmt"
	"time"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// E1Throughput reproduces the paper's §1 claim that a native XML store
// (Xindice) is "far inferior ... in terms of throughput" to a relational
// backend: ingest time and point-query throughput for the hybrid catalog
// vs. the native XML store, across corpus sizes.
func E1Throughput(o Options) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "relational catalog vs native XML store throughput",
		Claim:   "§1: Xindice-style native XML storage is far inferior to an RDBMS in throughput",
		Columns: []string{"docs", "store", "ingest", "point-qry", "qry/s"},
	}
	for _, docs := range []int{o.scale(100), o.scale(500), o.scale(1500)} {
		cfg := workload.Default()
		cfg.Docs = docs
		g := workload.New(cfg)
		corpus := g.Corpus()
		for _, kind := range []StoreKind{KindHybrid, KindNativeXML} {
			st, ingest, err := loadStore(kind, g, corpus)
			if err != nil {
				return nil, err
			}
			qi := 0
			lat, err := median(o.runs(), func() error {
				qi++
				_, err := st.Evaluate(g.PointQuery(qi, qi, qi))
				return err
			})
			if err != nil {
				return nil, err
			}
			qps := 0.0
			if lat > 0 {
				qps = float64(time.Second) / float64(lat)
			}
			t.AddRow(docs, string(kind), ingest, lat, fmt.Sprintf("%.0f", qps))
		}
	}
	t.Notes = append(t.Notes, "expected shape: hybrid query latency ~flat in corpus size (index probes); nativexml grows ~linearly (per-document tree walks)")
	return t, nil
}

// E2QueryScale reproduces the §2/§6 claim that the hybrid layout beats
// inlining (and the rest) for metadata-attribute queries as the corpus
// grows, because dynamic attributes fragment inlined tables into
// join-heavy chains.
func E2QueryScale(o Options) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "attribute-query latency vs corpus size, all stores",
		Claim:   "§2/§6: hybrid shredding answers attribute queries faster than inlining/edge/CLOB layouts",
		Columns: []string{"docs", "store", "point-qry", "range-qry", "nested-qry"},
	}
	for _, docs := range []int{o.scale(100), o.scale(500), o.scale(1500)} {
		cfg := workload.Default()
		cfg.Docs = docs
		g := workload.New(cfg)
		corpus := g.Corpus()
		for _, kind := range AllKinds {
			st, _, err := loadStore(kind, g, corpus)
			if err != nil {
				return nil, err
			}
			qi := 0
			point, err := median(o.runs(), func() error {
				qi++
				_, err := st.Evaluate(g.PointQuery(qi, qi, qi))
				return err
			})
			if err != nil {
				return nil, err
			}
			rng, err := median(o.runs(), func() error {
				qi++
				_, err := st.Evaluate(g.RangeQuery(qi, qi, 0.3))
				return err
			})
			if err != nil {
				return nil, err
			}
			nested, err := median(o.runs(), func() error {
				qi++
				_, err := st.Evaluate(g.NestedQuery(qi, qi, 1))
				return err
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(docs, string(kind), point, rng, nested)
		}
	}
	t.Notes = append(t.Notes, "expected shape: hybrid lowest and ~flat; inlining pays per-level attr self-joins on nested queries; clob pays full parse scans")
	return t, nil
}

// E3NestingDepth reproduces the §6 claim that the sub-attribute inverted
// list avoids the per-level self-joins that hinder the edge-table
// approach: query latency as criteria nesting deepens.
func E3NestingDepth(o Options) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "nested sub-attribute query latency vs nesting depth",
		Claim:   "§6: inverted lists avoid the self-joins that hinder the edge-table approach",
		Columns: []string{"depth", "hybrid", "edge", "inlining"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(400)
	cfg.NestDepth = 6
	cfg.ParamsPerAttr = 14
	g := workload.New(cfg)
	corpus := g.Corpus()
	stores := map[StoreKind]baseline.Store{}
	for _, kind := range []StoreKind{KindHybrid, KindEdge, KindInlining} {
		st, _, err := loadStore(kind, g, corpus)
		if err != nil {
			return nil, err
		}
		stores[kind] = st
	}
	for depth := 1; depth <= 6; depth++ {
		row := []any{depth}
		for _, kind := range []StoreKind{KindHybrid, KindEdge, KindInlining} {
			qi := 0
			lat, err := median(o.runs(), func() error {
				qi++
				_, err := stores[kind].Evaluate(g.NestedQuery(qi, qi, depth))
				return err
			})
			if err != nil {
				return nil, err
			}
			row = append(row, lat)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "expected shape: hybrid ~flat in depth (one inverted-list join); edge/inlining grow with depth (one self-join per level)")
	return t, nil
}

// E4ResponseBuild reproduces the §2/§5 claims: per-attribute CLOBs plus
// the schema-level ordering rebuild tagged responses faster than
// re-assembling shredded rows.
func E4ResponseBuild(o Options) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "response (document) construction time vs result-set size",
		Claim:   "§2/§5: CLOB-based set-operation tagging beats row re-assembly for query responses",
		Columns: []string{"results", "store", "build-time", "per-doc"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(600)
	g := workload.New(cfg)
	corpus := g.Corpus()
	stores := map[StoreKind]baseline.Store{}
	for _, kind := range []StoreKind{KindInlining, KindEdge} {
		st, _, err := loadStore(kind, g, corpus)
		if err != nil {
			return nil, err
		}
		stores[kind] = st
	}
	// The hybrid store runs with its read caches off: after median's
	// warm-up every build would otherwise be a response-cache hit, and E4
	// measures the §5 plan.
	hybrid, err := openHybrid(g, catalog.Options{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	if stores[KindHybrid], _, err = fill(hybrid, corpus); err != nil {
		return nil, err
	}
	for _, n := range []int{1, 10, 50, o.scale(250)} {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i%cfg.Docs) + 1
		}
		for _, kind := range []StoreKind{KindHybrid, KindInlining, KindEdge} {
			lat, err := median(o.runs(), func() error {
				resp, err := stores[kind].Fetch(ids)
				if err == nil && len(resp) != n {
					return fmt.Errorf("%s returned %d of %d docs", kind, len(resp), n)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(n, string(kind), lat, time.Duration(int64(lat)/int64(n)))
		}
	}
	t.Notes = append(t.Notes, "expected shape: all ~linear in result size; hybrid per-doc cost lowest (concatenate pre-serialized CLOBs + set-based tags)")
	return t, nil
}

// E5Storage reproduces the §6 space claim: the hybrid stores at most one
// CLOB copy of each attribute subtree (single attribute per root-to-leaf
// path), unlike per-level subtree CLOBs [15]; the edge table pays
// per-edge row overhead.
func E5Storage(o Options) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "storage bytes per document, by approach",
		Claim:   "§6: one CLOB per path bounds hybrid overhead below subtree-CLOBs-at-every-level [15]",
		Columns: []string{"store", "total", "bytes/doc", "vs raw"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(300)
	g := workload.New(cfg)
	corpus := g.Corpus()
	var rawBytes int64
	for _, d := range corpus {
		rawBytes += int64(len(d.String()))
	}
	for _, kind := range AllKinds {
		st, _, err := loadStore(kind, g, corpus)
		if err != nil {
			return nil, err
		}
		total := st.StorageBytes()
		t.AddRow(string(kind), total, total/int64(cfg.Docs), ratio(total, rawBytes))
		if kind == KindHybrid {
			// The paper's space claim is about CLOB payload: the hybrid
			// stores one CLOB copy of each attribute subtree.
			c := st.(baseline.Adapter).C
			var clobBytes int64
			c.DB.MustTable(catalog.TClobs).Scan(func(_ int64, r relstore.Row) bool {
				clobBytes += int64(len(r[5].S))
				return true
			})
			t.AddRow("hybrid CLOB payload only", clobBytes, clobBytes/int64(cfg.Docs), ratio(clobBytes, rawBytes))
		}
	}
	// Balmin/Papakonstantinou-style subtree CLOBs at every interior node
	// [15]: computed analytically over the corpus.
	var everyLevel int64
	for _, d := range corpus {
		d.Walk(func(n *xmldoc.Node) bool {
			if !n.IsLeaf() && n.Parent != nil {
				everyLevel += int64(len(n.String()))
			}
			return true
		})
	}
	t.AddRow("clobs-at-every-level [15]", everyLevel, everyLevel/int64(cfg.Docs), ratio(everyLevel, rawBytes))
	t.AddRow("raw documents", rawBytes, rawBytes/int64(cfg.Docs), "1.00x")
	t.Notes = append(t.Notes,
		"expected shape: hybrid CLOB payload <= raw bytes (one CLOB per attribute subtree, single attribute per path); every-level CLOBs [15] exceed raw and grow with depth; edge pays per-row overhead",
		"totals include in-memory row overhead (value headers), which inflates all relational layouts equally")
	return t, nil
}

// E6DynamicAttrs reproduces the §3 claims around dynamic attributes:
// ingest cost is flat in recursion depth for a fixed node count (the
// recursion "disappears"), and insert-time validation costs a small
// constant factor.
func E6DynamicAttrs(o Options) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "ingest latency vs dynamic nesting depth; validation cost",
		Claim:   "§3: name/source resolution makes recursion disappear; validation is cheap at insert",
		Columns: []string{"depth", "params", "hybrid-ingest", "edge-ingest", "hybrid-novalidate"},
	}
	for _, depth := range []int{0, 2, 4, 6} {
		cfg := workload.Default()
		cfg.Docs = o.scale(150)
		cfg.NestDepth = depth
		cfg.ParamsPerAttr = 14 // fixed node budget split across levels
		g := workload.New(cfg)
		corpus := g.Corpus()

		_, hybridIngest, err := loadStore(KindHybrid, g, corpus)
		if err != nil {
			return nil, err
		}
		_, edgeIngest, err := loadStore(KindEdge, g, corpus)
		if err != nil {
			return nil, err
		}
		// No-validation variant: definitions resolve but element types are
		// strings, so no numeric validation applies.
		cNo, err := catalog.Open(g.Schema, catalog.Options{AutoRegister: true})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, d := range corpus {
			if _, err := cNo.Ingest("bench", d); err != nil {
				return nil, err
			}
		}
		noValidate := time.Since(start)
		t.AddRow(depth, cfg.ParamsPerAttr, hybridIngest, edgeIngest, noValidate)
	}
	t.Notes = append(t.Notes,
		"expected shape: hybrid ingest ~flat in depth at fixed node count; typed validation within a small constant factor of auto-registered string ingest")
	return t, nil
}

// E7OrderingUpdate reproduces the §5/[19] claim: schema-level global
// ordering avoids the update costs a per-document total ordering pays
// when an attribute is inserted mid-document.
func E7OrderingUpdate(o Options) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "mid-document attribute insertion cost, schema-level vs per-document ordering",
		Claim:   "§5: global ordering at the schema level avoids per-document renumbering [19]",
		Columns: []string{"doc-nodes", "hybrid-insert", "docorder-insert", "renumbered-rows"},
	}
	for _, themes := range []int{5, 20, 80} {
		cfg := workload.Default()
		cfg.Docs = 1
		cfg.ThemesPerDoc = themes
		cfg.KeysPerTheme = 5
		g := workload.New(cfg)
		doc := g.Document(0)

		// Hybrid: AddAttribute appends rows; no ordering maintenance.
		c, err := catalog.Open(g.Schema, catalog.Options{})
		if err != nil {
			return nil, err
		}
		if err := g.RegisterDefinitions(c); err != nil {
			return nil, err
		}
		id, err := c.Ingest("bench", doc)
		if err != nil {
			return nil, err
		}
		frag, _ := xmldoc.ParseString("<theme><themekt>CF NetCDF</themekt><themekey>inserted_keyword</themekey></theme>")
		hybridLat, err := median(o.runs(), func() error {
			return c.AddAttribute(id, "bench", frag.Clone())
		})
		if err != nil {
			return nil, err
		}

		// Per-document total ordering [19]: the same insertion must
		// renumber every node ordered after the insertion point. The
		// simulator stores one row per node with its document-global
		// order and updates the tail.
		sim, renumbered, err := newDocOrderSim(doc)
		if err != nil {
			return nil, err
		}
		simLat, err := median(o.runs(), func() error {
			return sim.insertMid()
		})
		if err != nil {
			return nil, err
		}
		_ = renumbered
		t.AddRow(doc.CountNodes(), hybridLat, simLat, sim.lastRenumbered)
	}
	t.Notes = append(t.Notes, "expected shape: hybrid flat (append-only); per-document ordering cost grows with the node count after the insertion point")
	return t, nil
}

// docOrderSim maintains a per-document global ordering in a relational
// table, as [19]'s global ordering would.
type docOrderSim struct {
	table          *relstore.Table
	n              int
	lastRenumbered int
}

func newDocOrderSim(doc *xmldoc.Node) (*docOrderSim, int, error) {
	db := relstore.NewDatabase()
	tab, err := db.CreateTable("doc_order",
		relstore.Column{Name: "node_id", Type: relstore.KInt, NotNull: true},
		relstore.Column{Name: "ord", Type: relstore.KInt, NotNull: true},
	)
	if err != nil {
		return nil, 0, err
	}
	if _, err := tab.CreateIndex("by_ord", true, "ord"); err != nil {
		return nil, 0, err
	}
	n := 0
	var insertErr error
	doc.Walk(func(*xmldoc.Node) bool {
		n++
		if _, err := tab.Insert(relstore.Row{relstore.Int(int64(n)), relstore.Int(int64(n))}); err != nil {
			insertErr = err
			return false
		}
		return true
	})
	if insertErr != nil {
		return nil, 0, insertErr
	}
	return &docOrderSim{table: tab, n: n}, 0, nil
}

// insertMid inserts one node at the document midpoint, renumbering every
// following node.
func (s *docOrderSim) insertMid() error {
	mid := int64(s.n / 2)
	ids, err := s.table.LookupRange("by_ord",
		relstore.RangeBound{Vals: []relstore.Value{relstore.Int(mid)}, Inclusive: true, Set: true},
		relstore.RangeBound{})
	if err != nil {
		return err
	}
	// Renumber the tail from the back so the unique index never
	// collides.
	for i := len(ids) - 1; i >= 0; i-- {
		r := s.table.Get(ids[i])
		if r == nil {
			continue
		}
		if err := s.table.Update(ids[i], relstore.Row{r[0], relstore.Int(r[1].I + 1)}); err != nil {
			return err
		}
	}
	s.n++
	s.lastRenumbered = len(ids)
	if _, err := s.table.Insert(relstore.Row{relstore.Int(int64(s.n)), relstore.Int(mid)}); err != nil {
		return err
	}
	return nil
}

func ratio(a, b int64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}
