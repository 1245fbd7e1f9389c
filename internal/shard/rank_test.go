// Sharded ranked-retrieval oracle: BM25 rankings produced by the
// two-phase global-statistics scatter on 1-shard and 4-shard clusters
// must be bit-identical (by score, with documents compared as XML so
// topology-dependent IDs drop out) to a single catalog holding the
// union of the shards — for pure ranked queries and for
// content-and-structure compositions. Run under -race by the Makefile
// search target.
package shard_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
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

	single, err := catalog.Open(g.Schema, catalog.Options{})
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

	one, _ := openCluster(t, g, 1, corpus)
	four, _ := openCluster(t, g, 4, corpus)

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

	nonEmpty := 0
	for i := 0; i < 30; i++ {
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

	// Unbounded rankings (k past the corpus size) have no truncation
	// boundary, so every topology must produce the identical (score,
	// document) multiset.
	for i := 0; i < 10; i++ {
		q := g.RankedQuery(i)
		q.Rank.K = cfg.Docs * 2
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
