package catalog_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// a1Gen generates A1's corpus shape: the default workload with
// sub-attribute groups nested 6 deep and 14 parameters per group.
func a1Gen(docs int) *workload.Generator {
	cfg := workload.Default()
	cfg.Docs = docs
	cfg.NestDepth = 6
	cfg.ParamsPerAttr = 14
	return workload.New(cfg)
}

// a1Catalog opens a catalog with g's definitions and ingests its corpus.
func a1Catalog(tb testing.TB, g *workload.Generator) *catalog.Catalog {
	tb.Helper()
	c, err := catalog.Open(g.Schema, catalog.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := g.RegisterDefinitions(c); err != nil {
		tb.Fatal(err)
	}
	for _, d := range g.Corpus() {
		if _, err := c.Ingest("bench", d); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestRecursiveChaseMatchesRollup requires the depth-1 parent chase to
// leave every criterion with the set the inverted-list rollup does: on
// the Figure-3 corpus, with one sub-criterion every grid satisfies and
// one none does, and on nested workload queries at depths 1–6.
func TestRecursiveChaseMatchesRollup(t *testing.T) {
	fig3, _ := fig3Catalog(t)
	g := a1Gen(40)
	w := a1Catalog(t, g)
	type probe struct {
		name string
		c    *catalog.Catalog
		q    *catalog.Query
	}
	hit := probe{"fig3 dzmin=100", fig3, nestedQuery(relstore.OpLe, relstore.Int(2000), 100)}
	miss := probe{"fig3 dzmin=101", fig3, nestedQuery(relstore.OpLe, relstore.Int(2000), 101)}
	probes := []probe{hit, miss}
	for depth := 1; depth <= 6; depth++ {
		for k := 0; k < 8; k++ {
			probes = append(probes, probe{fmt.Sprintf("depth %d query %d", depth, k), w, g.NestedQuery(k, k, depth)})
		}
	}
	matched, n := map[string]bool{}, 0
	for _, p := range probes {
		rollup, chase, err := p.c.RollupStages(p.q)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want, err := rollup()
		if err != nil {
			t.Fatalf("%s: rollup: %v", p.name, err)
		}
		got, err := chase()
		if err != nil {
			t.Fatalf("%s: chase: %v", p.name, err)
		}
		if !maps.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s: chase %v != rollup %v", p.name, got, want)
		}
		// Criterion 1 is the query's one top-level criterion.
		matched[p.name] = len(want[1]) > 0
		if matched[p.name] {
			n++
		}
	}
	if !matched[hit.name] || matched[miss.name] || n < len(probes)/2 {
		t.Fatalf("weak probes: %d/%d non-empty; %s %v, %s %v", n, len(probes), hit.name, matched[hit.name], miss.name, matched[miss.name])
	}
}

// BenchmarkA1Rollup is the inverted-list ablation (A1): on A1's corpus
// shape (300 documents), the rollup stage of nested queries at depths
// 1–6 through the inverted list (rollupSet: one (child, parent) prefix
// per criterion) and through the recursive chase of depth-1 links up
// to the root, over the same probe sets. The rollup is the one stage
// where the two designs differ.
func BenchmarkA1Rollup(b *testing.B) {
	g := a1Gen(300)
	c := a1Catalog(b, g)
	type stage = func() (map[int][]uint64, error)
	for depth := 1; depth <= 6; depth++ {
		var rollups, chases []stage
		for k := 1; k <= 64; k++ {
			rollup, chase, err := c.RollupStages(g.NestedQuery(k, k, depth))
			if err != nil {
				b.Fatal(err)
			}
			rollups, chases = append(rollups, rollup), append(chases, chase)
		}
		for _, side := range []struct {
			name   string
			stages []stage
		}{{"inverted-list", rollups}, {"recursive", chases}} {
			b.Run(fmt.Sprintf("depth=%d/%s", depth, side.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := side.stages[i%len(side.stages)](); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
