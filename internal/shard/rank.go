package shard

import (
	"context"
	"fmt"
	"sort"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/textindex"
)

// Ranked retrieval across shards. BM25 scores depend on corpus-wide
// statistics (document count, average length, per-term document
// frequency), so naive per-shard scoring would rank the same document
// differently depending on which shard holds it. The fan-out read is
// therefore a two-phase scatter:
//
//  1. TextStats on every shard collects its corpus statistics for the
//     query's analyzed terms; the router sums them (textindex.Stats.Merge)
//     into the statistics of the virtual union catalog.
//  2. EvaluateRankedStats on every shard scores with the global
//     statistics, so every shard's scores are exactly what a single
//     catalog holding all the documents would compute.
//
// The merged ranking is then a k-way merge by (score desc, global ID
// asc), truncated to k. Each shard returns its local top-k under the
// global statistics, and any document in the global top-k is
// necessarily in its own shard's top-k, so the truncated merge loses
// nothing. Owner-routed ranked reads (Owner != "") score one shard with
// its local statistics — the same locality trade-off as Evaluate.

// EvaluateRanked runs a BM25 ranked query. An owner-scoped query routes
// to the owner's shard (local statistics); a superuser query fans out
// with globally merged statistics.
func (cl *Cluster) EvaluateRanked(q *catalog.Query) ([]catalog.ScoredID, error) {
	return cl.EvaluateRankedContext(context.Background(), q, false)
}

// EvaluateRankedContext is EvaluateRanked honoring ctx. fanout forces
// the two-phase global-statistics scatter regardless of owner, which
// for an owner-scoped query reproduces single-catalog ranking exactly,
// wherever published documents hash.
func (cl *Cluster) EvaluateRankedContext(ctx context.Context, q *catalog.Query, fanout bool) ([]catalog.ScoredID, error) {
	if q.Owner != "" && !fanout {
		idx := cl.ShardFor(q.Owner)
		cl.countRoute(idx)
		scored, err := cl.handle(idx).cat.EvaluateRankedContext(ctx, q)
		if err != nil {
			return nil, err
		}
		return cl.globalizeScored(idx, scored), nil
	}
	if q.Rank == nil || len(q.Rank.Terms) == 0 {
		return nil, fmt.Errorf("shard: ranked query has no rank terms")
	}
	cl.fanout.Inc()
	shards := cl.table.Load().shards

	// Phase 1: per-shard corpus statistics, summed into the statistics
	// of the union catalog.
	stats, err := scatter(ctx, shards, func(h *shardHandle) (textindex.Stats, error) {
		return h.cat.TextStats(q.Rank.Terms)
	})
	if err != nil {
		return nil, err
	}
	var global textindex.Stats
	for i := range stats {
		global.Merge(stats[i])
	}

	// Phase 2: score every shard with the global statistics.
	perShard, err := scatter(ctx, shards, func(h *shardHandle) ([]catalog.ScoredID, error) {
		return h.cat.EvaluateRankedStats(ctx, q, &global)
	})
	if err != nil {
		return nil, err
	}
	k := q.Rank.K
	if k <= 0 {
		k = catalog.DefaultRankK
	}
	return cl.mergeScored(perShard, k), nil
}

// globalizeScored rewrites one shard's scored local IDs to global IDs,
// preserving rank order.
func (cl *Cluster) globalizeScored(idx int, scored []catalog.ScoredID) []catalog.ScoredID {
	out := make([]catalog.ScoredID, len(scored))
	for i, s := range scored {
		out[i] = catalog.ScoredID{ID: cl.GlobalID(idx, s.ID), Score: s.Score}
	}
	return out
}

// mergeScored merges per-shard rankings (each already score-ordered) by
// (score desc, global ID asc) and truncates to k. Scores were computed
// under identical global statistics, so the order matches a single
// catalog's ranking of the union.
func (cl *Cluster) mergeScored(perShard [][]catalog.ScoredID, k int) []catalog.ScoredID {
	total := 0
	for _, s := range perShard {
		total += len(s)
	}
	out := make([]catalog.ScoredID, 0, total)
	for idx, scored := range perShard {
		out = append(out, cl.globalizeScored(idx, scored)...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// SearchRanked evaluates a ranked query (see EvaluateRankedContext for
// ctx and fanout) and builds the response documents in score order.
func (cl *Cluster) SearchRanked(ctx context.Context, q *catalog.Query, fanout bool) ([]catalog.RankedResponse, error) {
	scored, err := cl.EvaluateRankedContext(ctx, q, fanout)
	if err != nil {
		return nil, err
	}
	gids := make([]int64, len(scored))
	scoreOf := make(map[int64]float64, len(scored))
	for i, s := range scored {
		gids[i] = s.ID
		scoreOf[s.ID] = s.Score
	}
	resp, err := cl.BuildResponse(gids)
	if err != nil {
		return nil, err
	}
	out := make([]catalog.RankedResponse, len(resp))
	for i, r := range resp {
		out[i] = catalog.RankedResponse{ObjectID: r.ObjectID, Score: scoreOf[r.ObjectID], XML: r.XML}
	}
	return out, nil
}
