// Benchmarks — one per experiment in DESIGN.md's per-experiment index.
// Each benchmark times the experiment's core operation per iteration;
// the printable sweep tables come from `go run ./cmd/mdbench` (same code
// via internal/bench).
package hybridcat_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat"
	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/bench"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// fig3Catalog builds the Figure 3 catalog for figure benchmarks.
func fig3Catalog(b *testing.B) *hybridcat.Catalog {
	b.Helper()
	c, err := hybridcat.OpenLEAD(hybridcat.Options{})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := c.RegisterAttr("grid", "ARPS", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []string{"dx", "dz"} {
		if _, err := c.RegisterElem(e, "ARPS", grid.ID, hybridcat.DTFloat, ""); err != nil {
			b.Fatal(err)
		}
	}
	gs, err := c.RegisterAttr("grid-stretching", "ARPS", grid.ID, "")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []string{"dzmin", "reference-height"} {
		if _, err := c.RegisterElem(e, "ARPS", gs.ID, hybridcat.DTFloat, ""); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// loaded builds a store of the given kind filled with a default corpus.
func loaded(b *testing.B, kind bench.StoreKind, mutate func(*workload.Config)) (baseline.Store, *workload.Generator) {
	b.Helper()
	cfg := workload.Default()
	cfg.Docs = 300
	if mutate != nil {
		mutate(&cfg)
	}
	g := workload.New(cfg)
	st, err := bench.NewStore(kind, g)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range g.Corpus() {
		if _, err := st.Ingest("bench", d); err != nil {
			b.Fatal(err)
		}
	}
	return st, g
}

// --- Figures ---

// BenchmarkF1RoundTrip times the full Figure 1 pipeline: ingest + query +
// response build of the Figure 3 document.
func BenchmarkF1RoundTrip(b *testing.B) {
	q := &hybridcat.Query{}
	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", hybridcat.OpEq, hybridcat.Int(1000))
	for i := 0; i < b.N; i++ {
		c := fig3Catalog(b)
		if _, err := c.IngestXML("s", hybridcat.Figure3Document); err != nil {
			b.Fatal(err)
		}
		resp, err := c.Search(q)
		if err != nil || len(resp) != 1 {
			b.Fatalf("%v %d", err, len(resp))
		}
	}
}

// BenchmarkF2SchemaOrdering times schema finalization (partition
// validation + global ordering + ancestor inverted list).
func BenchmarkF2SchemaOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := xmlschema.LEAD(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF3Shred times hybrid shredding of the Figure 3 document.
func BenchmarkF3Shred(b *testing.B) {
	c := fig3Catalog(b)
	doc, err := hybridcat.ParseXML(hybridcat.Figure3Document)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Ingest("s", doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF4QueryPipeline times the paper's §4 worked query through the
// Figure 4 set-based pipeline.
func BenchmarkF4QueryPipeline(b *testing.B) {
	c := fig3Catalog(b)
	if _, err := c.IngestXML("s", hybridcat.Figure3Document); err != nil {
		b.Fatal(err)
	}
	q := &hybridcat.Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", hybridcat.OpEq, hybridcat.Int(1000))
	st := &hybridcat.AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	st.AddElem("dzmin", "ARPS", hybridcat.OpEq, hybridcat.Int(100))
	g.AddSub(st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := c.Evaluate(q)
		if err != nil || len(ids) != 1 {
			b.Fatalf("%v %v", err, ids)
		}
	}
}

// --- E1: relational vs native XML throughput ---

func benchPointQuery(b *testing.B, kind bench.StoreKind) {
	st, g := loaded(b, kind, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Evaluate(g.PointQuery(i, i, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1ThroughputHybrid(b *testing.B)    { benchPointQuery(b, bench.KindHybrid) }
func BenchmarkE1ThroughputNativeXML(b *testing.B) { benchPointQuery(b, bench.KindNativeXML) }

func benchIngest(b *testing.B, kind bench.StoreKind) {
	cfg := workload.Default()
	g := workload.New(cfg)
	docs := make([]*xmldoc.Node, 64)
	for i := range docs {
		docs[i] = g.Document(i)
	}
	st, err := bench.NewStore(kind, g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Ingest("bench", docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1IngestHybrid(b *testing.B)    { benchIngest(b, bench.KindHybrid) }
func BenchmarkE1IngestNativeXML(b *testing.B) { benchIngest(b, bench.KindNativeXML) }

// --- E2: query latency across stores ---

func BenchmarkE2QueryScale(b *testing.B) {
	for _, kind := range bench.AllKinds {
		b.Run(string(kind), func(b *testing.B) { benchPointQuery(b, kind) })
	}
}

// --- E3: nesting depth ---

func BenchmarkE3NestingDepth(b *testing.B) {
	deep := func(cfg *workload.Config) {
		cfg.NestDepth = 4
		cfg.ParamsPerAttr = 10
		cfg.Docs = 200
	}
	for _, kind := range []bench.StoreKind{bench.KindHybrid, bench.KindEdge, bench.KindInlining} {
		st, g := loaded(b, kind, deep)
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := st.Evaluate(g.NestedQuery(i, i, 4)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: response construction ---

func BenchmarkE4ResponseBuild(b *testing.B) {
	ids := make([]int64, 20)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	for _, kind := range []bench.StoreKind{bench.KindHybrid, bench.KindInlining, bench.KindEdge} {
		st, _ := loaded(b, kind, nil)
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resp, err := st.Fetch(ids)
				if err != nil || len(resp) != len(ids) {
					b.Fatalf("%v %d", err, len(resp))
				}
			}
		})
	}
}

// --- E5: storage (reported as bytes/doc metrics) ---

func BenchmarkE5Storage(b *testing.B) {
	for _, kind := range bench.AllKinds {
		b.Run(string(kind), func(b *testing.B) {
			var bytesPerDoc float64
			for i := 0; i < b.N; i++ {
				st, _ := loaded(b, kind, func(cfg *workload.Config) { cfg.Docs = 50 })
				bytesPerDoc = float64(st.StorageBytes()) / 50
			}
			b.ReportMetric(bytesPerDoc, "bytes/doc")
		})
	}
}

// --- E6: dynamic attribute ingest & validation ---

func BenchmarkE6DynamicIngest(b *testing.B) {
	for _, depth := range []int{0, 4} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			cfg := workload.Default()
			cfg.NestDepth = depth
			cfg.ParamsPerAttr = 10
			g := workload.New(cfg)
			c, err := hybridcat.Open(g.Schema, hybridcat.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := g.RegisterDefinitions(c); err != nil {
				b.Fatal(err)
			}
			docs := make([]*xmldoc.Node, 32)
			for i := range docs {
				docs[i] = g.Document(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Ingest("bench", docs[i%len(docs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: ordering maintenance on mid-document insert ---

func BenchmarkE7OrderingUpdateHybrid(b *testing.B) {
	cfg := workload.Default()
	cfg.Docs = 1
	cfg.ThemesPerDoc = 40
	g := workload.New(cfg)
	c, err := hybridcat.Open(g.Schema, hybridcat.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := g.RegisterDefinitions(c); err != nil {
		b.Fatal(err)
	}
	id, err := c.Ingest("bench", g.Document(0))
	if err != nil {
		b.Fatal(err)
	}
	frag, _ := hybridcat.ParseXML("<theme><themekt>CF</themekt><themekey>k</themekey></theme>")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.AddAttribute(id, "bench", frag.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A1: inverted list ablation ---

func BenchmarkA1InvertedList(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := workload.Default()
			cfg.Docs = 150
			cfg.NestDepth = 4
			cfg.ParamsPerAttr = 10
			g := workload.New(cfg)
			c, err := hybridcat.Open(g.Schema, hybridcat.Options{DisableInvertedList: disable})
			if err != nil {
				b.Fatal(err)
			}
			if err := g.RegisterDefinitions(c); err != nil {
				b.Fatal(err)
			}
			for _, d := range g.Corpus() {
				if _, err := c.Ingest("bench", d); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Evaluate(g.NestedQuery(i, i, 4)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A2: CLOB granularity ablation ---

func BenchmarkA2ClobGranularity(b *testing.B) {
	ids := make([]int64, 20)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	for _, kind := range []bench.StoreKind{bench.KindHybrid, bench.KindClob} {
		st, _ := loaded(b, kind, nil)
		b.Run("fetch-"+string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := st.Fetch(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A3: typed columns ablation (indexed range query) ---

func BenchmarkA3TypedRangeQuery(b *testing.B) {
	st, g := loaded(b, bench.KindHybrid, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Evaluate(g.RangeQuery(i, i, 0.3)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestThroughputAllStores is the cross-store ingest companion
// to E1/E2.
func BenchmarkIngestThroughputAllStores(b *testing.B) {
	for _, kind := range bench.AllKinds {
		b.Run(string(kind), func(b *testing.B) { benchIngest(b, kind) })
	}
}

// --- Extension features ---

// BenchmarkOntologyExpansion measures query widening through a term
// hierarchy plus evaluation of the expanded OneOf predicate.
func BenchmarkOntologyExpansion(b *testing.B) {
	st, _ := loaded(b, bench.KindHybrid, nil)
	ont, err := hybridcat.ParseOntology(hybridcat.CFKeywords)
	if err != nil {
		b.Fatal(err)
	}
	q := &hybridcat.Query{}
	q.Attr("theme", "").AddElem("themekey", "", hybridcat.OpEq, hybridcat.Str("precipitation"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Evaluate(hybridcat.ExpandQuery(ont, q)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotSaveLoad measures catalog persistence round trips.
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	st, _ := loaded(b, bench.KindHybrid, func(cfg *workload.Config) { cfg.Docs = 100 })
	cat := st.(baseline.Adapter).C
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := cat.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := hybridcat.LoadCatalog(hybridcat.LEADSchema(), hybridcat.Options{}, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestBatch measures batch ingest throughput (shred workers =
// GOMAXPROCS).
func BenchmarkIngestBatch(b *testing.B) {
	cfg := workload.Default()
	g := workload.New(cfg)
	docs := make([]*xmldoc.Node, 32)
	for i := range docs {
		docs[i] = g.Document(i)
	}
	cat, err := hybridcat.Open(g.Schema, hybridcat.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := g.RegisterDefinitions(cat); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.IngestBatch("bench", docs, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(docs)), "docs/op")
}

// BenchmarkContextQuery measures containment-scoped evaluation.
func BenchmarkContextQuery(b *testing.B) {
	st, g := loaded(b, bench.KindHybrid, nil)
	cat := st.(baseline.Adapter).C
	coll, err := cat.CreateCollection("exp", "bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	for id := int64(1); id <= 150; id++ {
		if err := cat.AddToCollection(coll, id); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.EvaluateInContext(coll, g.PointQuery(i, i, i)); err != nil {
			b.Fatal(err)
		}
	}
}
