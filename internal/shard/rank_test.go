// Sharded ranked-retrieval oracle: BM25 rankings produced by the
// two-phase global-statistics scatter on 1-shard and 4-shard clusters
// must be bit-identical (by score, with documents compared as XML so
// topology-dependent IDs drop out) to a single catalog holding the
// union of the shards — for pure ranked queries and for
// content-and-structure compositions, with ingests and deletes between
// the queries so every shard's text index gets there by snapshot diff.
// Run under -race by the Makefile search target.
package shard_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/workload"
)

func TestShardRankedEquivalence(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 96
	g := workload.New(cfg)
	raw := g.Corpus()
	corpus := make([]*workloadDoc, len(raw))
	for i, d := range raw {
		corpus[i] = &workloadDoc{owner: equivOwner(i), doc: d}
	}

	// One registry per topology, to show below that the writes between
	// the ranked queries were absorbed by index advances, not rebuilds.
	regs := map[string]*obs.Registry{"single": obs.NewRegistry(), "1-shard": obs.NewRegistry(), "4-shard": obs.NewRegistry()}
	single, err := catalog.Open(g.Schema, catalog.Options{Metrics: regs["single"]})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterDefinitions(single); err != nil {
		t.Fatal(err)
	}
	for i, d := range raw {
		if _, err := single.Ingest(equivOwner(i), d); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}

	one, _ := openClusterWith(t, g, 1, corpus, catalog.Options{Metrics: regs["1-shard"]})
	four, _ := openClusterWith(t, g, 4, corpus, catalog.Options{Metrics: regs["4-shard"]})

	// A ranked result set normalized for cross-topology comparison:
	// (score, response XML) pairs sorted score-desc then XML, so shards'
	// differing tie-break IDs cannot split the comparison.
	type cell struct {
		Score float64
		XML   string
	}
	normalize := func(resp []catalog.RankedResponse) []cell {
		out := make([]cell, len(resp))
		for i, r := range resp {
			out[i] = cell{Score: r.Score, XML: r.XML}
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].Score != out[b].Score {
				return out[a].Score > out[b].Score
			}
			return out[a].XML < out[b].XML
		})
		return out
	}
	singleRanked := func(q *catalog.Query) []cell {
		resp, err := single.SearchRanked(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		return normalize(resp)
	}
	clusterRanked := func(cl interface {
		SearchRanked(context.Context, *catalog.Query, bool) ([]catalog.RankedResponse, error)
	}, q *catalog.Query) []cell {
		resp, err := cl.SearchRanked(t.Context(), q, true)
		if err != nil {
			t.Fatal(err)
		}
		return normalize(resp)
	}

	// Between ranked queries every topology takes the same write: a new
	// document each round, and every third round the delete of one added
	// two rounds earlier. Each shard's index therefore reaches the next
	// query by snapshot diff, and the two-phase scores must stay
	// bit-identical to the single catalog's through it.
	type added struct{ single, one, four int64 }
	var written []added
	write := func(round int) {
		n := cfg.Docs + round
		var a added
		var err error
		if a.single, err = single.Ingest(equivOwner(n), g.Document(n)); err != nil {
			t.Fatal(err)
		}
		if a.one, err = one.Ingest(equivOwner(n), g.Document(n)); err != nil {
			t.Fatal(err)
		}
		if a.four, err = four.Ingest(equivOwner(n), g.Document(n)); err != nil {
			t.Fatal(err)
		}
		written = append(written, a)
		if round%3 == 2 {
			d := written[round-2]
			for _, del := range []func() (bool, error){
				func() (bool, error) { return single.Delete(d.single) },
				func() (bool, error) { return one.Delete(d.one) },
				func() (bool, error) { return four.Delete(d.four) },
			} {
				if ok, err := del(); err != nil || !ok {
					t.Fatalf("round %d delete: %v %v", round, ok, err)
				}
			}
		}
	}

	nonEmpty := 0
	for i := 0; i < 30; i++ {
		if i > 0 {
			write(i - 1)
		}
		var q *catalog.Query
		if i%2 == 0 {
			q = g.RankedQuery(i)
		} else {
			q = g.RankedStructuralQuery(i)
		}
		q.Rank.K = 25
		name := fmt.Sprintf("ranked-%d", i)

		want := singleRanked(q)
		got1 := clusterRanked(one, q)
		got4 := clusterRanked(four, q)
		if len(want) > 0 {
			nonEmpty++
		}
		// The k-th score may be shared by more documents than k admits;
		// that boundary tie group is cut by ID, which differs across
		// topologies. Scores must agree position-by-position everywhere;
		// documents must agree exactly above the boundary score.
		boundary := 0.0
		if len(want) > 0 {
			boundary = want[len(want)-1].Score
		}
		for _, pair := range []struct {
			label string
			got   []cell
		}{{"1-shard", got1}, {"4-shard", got4}} {
			if len(pair.got) != len(want) {
				t.Fatalf("%s: %s returned %d results, single returned %d",
					name, pair.label, len(pair.got), len(want))
			}
			for j := range want {
				if pair.got[j].Score != want[j].Score {
					t.Errorf("%s: %s score %d: %v != single %v (global-stats scatter must be bit-identical)",
						name, pair.label, j, pair.got[j].Score, want[j].Score)
				}
				if want[j].Score > boundary && pair.got[j].XML != want[j].XML {
					t.Errorf("%s: %s document %d diverges from single catalog", name, pair.label, j)
				}
			}
		}
	}
	if nonEmpty < 10 {
		t.Fatalf("only %d/30 ranked queries matched anything — workload too sparse", nonEmpty)
	}
	for name, shards := range map[string]float64{"single": 1, "1-shard": 1, "4-shard": 4} {
		s := regs[name].Snapshot()
		if b, a := s["textindex_builds_total"], s["textindex_advances_total"]; b != shards || a < 10 {
			t.Errorf("%s: %v index builds and %v advances across 29 writes, want %v builds and the rest advances", name, b, a, shards)
		}
	}

	// Unbounded rankings (k past the corpus size) have no truncation
	// boundary, so every topology must produce the identical (score,
	// document) multiset.
	for i := 0; i < 10; i++ {
		q := g.RankedQuery(i)
		q.Rank.K = cfg.Docs * 2
		write(29 + i)
		want := singleRanked(q)
		for _, pair := range []struct {
			label string
			got   []cell
		}{{"1-shard", clusterRanked(one, q)}, {"4-shard", clusterRanked(four, q)}} {
			if len(pair.got) != len(want) {
				t.Fatalf("unbounded-%d: %s returned %d results, single returned %d",
					i, pair.label, len(pair.got), len(want))
			}
			for j := range want {
				if pair.got[j] != want[j] {
					t.Errorf("unbounded-%d: %s result %d diverges (score %v vs %v)",
						i, pair.label, j, pair.got[j].Score, want[j].Score)
				}
			}
		}
	}

	// Owner-routed ranked reads resolve on one shard and must at least
	// return that shard's admitted documents in order; sanity-check the
	// route returns something for an owner with matching keywords.
	q := g.RankedQuery(3)
	q.Owner = equivOwner(3)
	scored, err := four.EvaluateRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(scored); j++ {
		if scored[j].Score > scored[j-1].Score {
			t.Fatalf("owner-routed ranking out of order at %d: %+v after %+v", j, scored[j], scored[j-1])
		}
	}
}
