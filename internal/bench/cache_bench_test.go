package bench

import (
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// benchCatalog builds a small loaded catalog for micro-benchmarks.
func benchCatalog(b *testing.B, opts catalog.Options) (*catalog.Catalog, *workload.Generator) {
	b.Helper()
	cfg := workload.Default()
	cfg.Docs = 60
	g := workload.New(cfg)
	c, err := catalog.Open(g.Schema, opts)
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
	return c, g
}

// BenchmarkEvaluateWarmCached measures a repeated query answered by the
// generation-stamped evaluate cache.
func BenchmarkEvaluateWarmCached(b *testing.B) {
	c, g := benchCatalog(b, catalog.Options{})
	q := g.PointQuery(0, 0, 0)
	if _, err := c.Evaluate(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateUncached measures the same repeated query with the
// caches disabled — the full Figure-4 pipeline every iteration.
func BenchmarkEvaluateUncached(b *testing.B) {
	c, g := benchCatalog(b, catalog.Options{CacheSize: -1})
	q := g.PointQuery(0, 0, 0)
	if _, err := c.Evaluate(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResponseBuildWarmCached measures rebuilding one object's
// document with the response layer warm.
func BenchmarkResponseBuildWarmCached(b *testing.B) {
	c, g := benchCatalog(b, catalog.Options{})
	ids, err := c.Evaluate(g.ThemeQuery(3))
	if err != nil || len(ids) == 0 {
		b.Fatalf("no seed results: %v %v", ids, err)
	}
	if _, err := c.BuildResponse(ids[:1]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BuildResponse(ids[:1]); err != nil {
			b.Fatal(err)
		}
	}
}
