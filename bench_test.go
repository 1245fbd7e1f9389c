// Benchmarks — one per experiment in DESIGN.md's per-experiment index.
// Each benchmark times the experiment's core operation per iteration;
// the printable sweep tables come from `go run ./cmd/mdbench` (same code
// via internal/bench).
package hybridcat_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat"
	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/bench"
	"github.com/gridmeta/hybridcat/internal/relstore"
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

// w1Shape is W1's document shape (the benchmark's corpusConfig at seed
// 1: about 4 KB of XML a document, 3×3 themes, 4 namelist groups of 8
// parameters nested 2 deep, 50 values per parameter).
func w1Shape(docs int) workload.Config {
	return workload.Config{
		Seed:               1,
		Docs:               docs,
		ThemesPerDoc:       3,
		KeysPerTheme:       3,
		DynamicAttrsPerDoc: 4,
		ParamsPerAttr:      8,
		NestDepth:          2,
		ValueCardinality:   50,
	}
}

// BenchmarkIngestDurableWriters prices ingest's serialized section in
// process: two goroutines call IngestXML on a durable catalog (real
// fsync, a checkpoint every 1 024 records) with 256 documents of W1's
// shape an iteration, serialized before the timer starts. The shred
// runs under the write lock; the writers overlap parsing and the wait
// for their batch's fsync. cpu-ms/doc is the process's user+system time
// (getrusage) over the timed loop.
func BenchmarkIngestDurableWriters(b *testing.B) {
	const writers, docs = 2, 256
	g := workload.New(w1Shape(docs))
	xml := make([]string, docs)
	for i := range xml {
		xml[i] = g.Document(i).String()
	}
	cat, err := hybridcat.OpenDurable(g.Schema, hybridcat.Options{}, hybridcat.DurabilityOptions{
		WALPath: filepath.Join(b.TempDir(), "bench.wal"), CheckpointEvery: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	if err := g.RegisterDefinitions(cat); err != nil {
		b.Fatal(err)
	}
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	cpu := cpuTime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for d := w; d < docs; d += writers {
					if _, err := cat.IngestXML("bench", xml[d]); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	n := float64(b.N * docs)
	b.ReportMetric(n/b.Elapsed().Seconds(), "docs/s")
	b.ReportMetric(float64(cpuTime()-cpu)/float64(time.Millisecond)/n, "cpu-ms/doc")
}

// heapAlloc returns the live heap: HeapAlloc right after a collection.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkIngestHeapPerDoc is an in-process heap census of ingest: the
// live heap a catalog holds per document of W1's shape (1 536
// documents), measured as HeapAlloc after runtime.GC before and after
// the ingest, the bytes allocated per document while ingesting
// (TotalAlloc across the ingest loop, document generation included),
// the relstore values those documents' rows hold, and the entries of
// every declared index. Each document is generated as it is ingested,
// so no document tree stays live.
func BenchmarkIngestHeapPerDoc(b *testing.B) {
	g := workload.New(w1Shape(1536))
	docs := g.Config().Docs
	var heap, alloc, values, entries float64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		before := heapAlloc()
		cat, err := hybridcat.Open(g.Schema, hybridcat.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.RegisterDefinitions(cat); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		total := ms.TotalAlloc
		for d := 0; d < docs; d++ {
			if _, err := cat.Ingest("bench", g.Document(d)); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		alloc = float64(ms.TotalAlloc - total)
		heap = float64(heapAlloc()) - float64(before)
		n, e := 0, 0
		for _, name := range cat.DB.TableNames() {
			t := cat.DB.MustTable(name)
			t.Scan(func(_ int64, r relstore.Row) bool {
				n += len(r)
				return true
			})
			for _, ix := range t.Schema.Indexes {
				ids, err := t.LookupRange(ix.Name, relstore.RangeBound{}, relstore.RangeBound{})
				if err != nil {
					b.Fatal(err)
				}
				e += len(ids)
			}
		}
		values, entries = float64(n), float64(e)
		runtime.KeepAlive(cat)
	}
	b.ReportMetric(heap/float64(docs), "heap-B/doc")
	b.ReportMetric(alloc/float64(docs), "alloc-B/doc")
	b.ReportMetric(values/float64(docs), "values/doc")
	b.ReportMetric(entries/float64(docs), "entries/doc")
}

// BenchmarkSnapshotLoad prices recovery from a checkpoint in process,
// the path mdserver boot, follower bootstrap and rebalance bootstrap
// take: a catalog of W1's shape (1 536 and 15 360 documents) is saved
// once to <wal>.snap in a temporary directory, and each iteration
// recovers it with OpenDurable — the read of exactly the file's size,
// the bulk index build and an empty log. load-us/doc is the OpenDurable
// time a document; heap-B/doc is the live heap (HeapAlloc after
// runtime.GC) the recovered catalog holds a document. The catalog is
// not closed, since Close checkpoints; the log it created is removed
// before the next iteration. -short runs the smaller size only.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, docs := range []int{1536, 15360} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			if docs > 1536 && testing.Short() {
				b.Skip("-short runs the 1 536-document size only")
			}
			g := workload.New(w1Shape(docs))
			walPath := filepath.Join(b.TempDir(), "bench.wal")
			func() {
				cat, err := hybridcat.Open(g.Schema, hybridcat.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := g.RegisterDefinitions(cat); err != nil {
					b.Fatal(err)
				}
				for d := 0; d < docs; d++ {
					if _, err := cat.Ingest("bench", g.Document(d)); err != nil {
						b.Fatal(err)
					}
				}
				if err := cat.SaveFile(nil, walPath+".snap"); err != nil {
					b.Fatal(err)
				}
			}()
			var heap float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.Remove(walPath); err != nil && !errors.Is(err, os.ErrNotExist) {
					b.Fatal(err)
				}
				before := heapAlloc()
				b.StartTimer()
				cat, err := hybridcat.OpenDurable(g.Schema, hybridcat.Options{}, hybridcat.DurabilityOptions{WALPath: walPath})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				heap = float64(heapAlloc()) - float64(before)
				runtime.KeepAlive(cat)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*docs), "load-us/doc")
			b.ReportMetric(heap/float64(docs), "heap-B/doc")
		})
	}
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
