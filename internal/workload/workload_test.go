package workload

import (
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func smallConfig() Config {
	cfg := Default()
	cfg.Docs = 40
	cfg.NestDepth = 2
	cfg.ParamsPerAttr = 6
	return cfg
}

func TestGenerationDeterministic(t *testing.T) {
	g1 := New(smallConfig())
	g2 := New(smallConfig())
	for i := 0; i < 10; i++ {
		a, b := g1.Document(i), g2.Document(i)
		if !xmldoc.Equal(a, b) {
			t.Fatalf("doc %d not deterministic: %s", i, xmldoc.Diff(a, b))
		}
	}
	// Different seeds diverge.
	cfg := smallConfig()
	cfg.Seed = 99
	g3 := New(cfg)
	if xmldoc.Equal(g1.Document(0), g3.Document(0)) {
		t.Error("different seeds should produce different documents")
	}
}

func TestDocumentsValidAgainstSchemaAndDefs(t *testing.T) {
	cfg := smallConfig()
	g := New(cfg)
	for _, opts := range []catalog.Options{{CacheSize: -1}, {}} {
		c, err := catalog.Open(g.Schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RegisterDefinitions(c); err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, cfg.Docs)
		for i := range ids {
			if ids[i], err = c.Ingest("bench", g.Document(i)); err != nil {
				t.Fatalf("doc %d failed ingest: %v", i, err)
			}
		}
		if c.ObjectCount() != cfg.Docs {
			t.Errorf("objects = %d", c.ObjectCount())
		}
		// Nothing skipped: every document rebuilds byte for byte, on a
		// cold build and again from the response cache when it is on.
		for pass := 0; pass < 2; pass++ {
			resp, err := c.BuildResponse(ids)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp) != len(ids) {
				t.Fatalf("CacheSize %d pass %d: %d responses for %d objects", opts.CacheSize, pass, len(resp), len(ids))
			}
			for i, r := range resp {
				if want := g.Document(i).String(); r.ObjectID != ids[i] || r.XML != want {
					t.Fatalf("CacheSize %d pass %d: doc %d (object %d) rebuilt as\n%s\nwant\n%s",
						opts.CacheSize, pass, i, r.ObjectID, r.XML, want)
				}
			}
		}
	}
}

func TestQuerySelectivities(t *testing.T) {
	cfg := smallConfig()
	cfg.Docs = 200
	g := New(cfg)
	c, _ := catalog.Open(g.Schema, catalog.Options{})
	if err := g.RegisterDefinitions(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Docs; i++ {
		if _, err := c.Ingest("bench", g.Document(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Point queries hit roughly Docs/ValueCardinality documents.
	total := 0
	for k := 0; k < cfg.ValueCardinality; k++ {
		ids, err := c.Evaluate(g.PointQuery(0, 0, k))
		if err != nil {
			t.Fatal(err)
		}
		total += len(ids)
	}
	if total != cfg.Docs {
		t.Errorf("point query buckets cover %d docs, want %d", total, cfg.Docs)
	}
	// Range query fraction scales.
	half, err := c.Evaluate(g.RangeQuery(0, 0, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(half) < cfg.Docs/4 || len(half) > 3*cfg.Docs/4 {
		t.Errorf("half-range query hit %d of %d", len(half), cfg.Docs)
	}
	// Nested queries at each depth return something for some bucket.
	for depth := 0; depth <= cfg.NestDepth; depth++ {
		found := 0
		for k := 0; k < cfg.ValueCardinality; k++ {
			ids, err := c.Evaluate(g.NestedQuery(0, k, depth))
			if err != nil {
				t.Fatalf("depth %d: %v", depth, err)
			}
			found += len(ids)
		}
		if found != cfg.Docs {
			t.Errorf("depth %d buckets cover %d docs, want %d", depth, found, cfg.Docs)
		}
	}
	// Theme and multi-criteria queries execute.
	if _, err := c.Evaluate(g.ThemeQuery(1)); err != nil {
		t.Error(err)
	}
	if _, err := c.Evaluate(g.MultiQuery(0, 4)); err != nil {
		t.Error(err)
	}
}

// TestOracleAgreementOnGeneratedCorpus is the end-to-end property test:
// on a generated corpus, the hybrid catalog must agree with the DOM
// oracle for every generated query shape.
func TestOracleAgreementOnGeneratedCorpus(t *testing.T) {
	cfg := smallConfig()
	cfg.Docs = 60
	g := New(cfg)
	schema := xmlschema.MustLEAD()
	c, _ := catalog.Open(g.Schema, catalog.Options{})
	if err := g.RegisterDefinitions(c); err != nil {
		t.Fatal(err)
	}
	docs := g.Corpus()
	for _, d := range docs {
		if _, err := c.Ingest("bench", d); err != nil {
			t.Fatal(err)
		}
	}
	var queries []*catalog.Query
	for k := 0; k < 6; k++ {
		queries = append(queries,
			g.PointQuery(k, k, k),
			g.RangeQuery(k, k, float64(k+1)/7),
			g.NestedQuery(k, k, k%3),
			g.ThemeQuery(k),
			g.MultiQuery(k, 1+k%3),
		)
	}
	for qi, q := range queries {
		got, err := c.Evaluate(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		var want []int64
		for i, d := range docs {
			if baseline.DocMatches(schema, d, q) {
				want = append(want, int64(i+1))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d: hybrid %v, oracle %v", qi, got, want)
		}
	}
}

func TestConfigEdgeCases(t *testing.T) {
	// Zero nesting, tiny cardinality.
	cfg := Default()
	cfg.Docs = 5
	cfg.NestDepth = 0
	cfg.ValueCardinality = 1
	g := New(cfg)
	c, _ := catalog.Open(g.Schema, catalog.Options{})
	if err := g.RegisterDefinitions(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Docs; i++ {
		if _, err := c.Ingest("bench", g.Document(i)); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := c.Evaluate(g.PointQuery(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != cfg.Docs {
		t.Errorf("cardinality-1 point query hit %d of %d", len(ids), cfg.Docs)
	}
	// NestedQuery with depth beyond the corpus caps.
	if _, err := c.Evaluate(g.NestedQuery(0, 0, 10)); err != nil {
		t.Errorf("capped nested query: %v", err)
	}
}
