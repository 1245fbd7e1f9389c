// Cancellation through the scatter, mirroring
// internal/catalog/context_test.go: a context cancelled before or
// during a 4-shard fan-out read must come back as context.Canceled from
// every entry point, and the Figure-4 / rank stages behind the
// cancellation point must not run.
package shard_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// countdownCtx is a context whose Err turns non-nil after a fixed
// number of checks, so a test cancels deterministically at each check
// the scatter and the per-shard pipelines make instead of racing a
// timer. The counter is atomic: four shards check it concurrently.
type countdownCtx struct {
	checks atomic.Int64
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.checks.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// allow returns a context whose first n Err checks pass.
func allow(n int64) *countdownCtx {
	c := &countdownCtx{}
	c.checks.Store(n)
	return c
}

func TestShardContextCancelled(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 48
	g := workload.New(cfg)
	raw := g.Corpus()
	corpus := make([]*workloadDoc, len(raw))
	for i, d := range raw {
		corpus[i] = &workloadDoc{owner: equivOwner(i), doc: d}
	}
	// Caches off so every call runs the pipeline (and therefore makes
	// every stage-boundary check); a registry so the stage histograms
	// show which stages ran.
	reg := obs.NewRegistry()
	four, _ := openClusterWith(t, g, 4, corpus, catalog.Options{CacheSize: -1, Metrics: reg})
	stageRuns := func(stage string) uint64 {
		return reg.Histogram("query_stage_nanos", obs.L("stage", stage)).Count()
	}

	structural := g.MultiQuery(3, 2)
	structural.Owner = ""
	ranked := g.RankedStructuralQuery(1)
	ranked.Owner = equivOwner(1) // owner-scoped: only ?fanout=1 scatters it

	for _, tc := range []struct {
		name  string
		stage string // the last stage of the read: must not run once cancelled
		run   func(ctx context.Context) error
	}{
		{"EvaluateContext fan-out", "intersect", func(ctx context.Context) error {
			_, err := four.EvaluateContext(ctx, structural, false)
			return err
		}},
		{"SearchRanked fanout=1", "rank", func(ctx context.Context) error {
			_, err := four.SearchRanked(ctx, ranked, true)
			return err
		}},
	} {
		// Live context: the read works, and its last stage ran on every
		// shard.
		before := stageRuns(tc.stage)
		if err := tc.run(context.Background()); err != nil {
			t.Fatalf("%s: live: %v", tc.name, err)
		}
		if got := stageRuns(tc.stage) - before; got != 4 {
			t.Fatalf("%s: live run recorded %d %s stages, want one per shard", tc.name, got, tc.stage)
		}

		// Pre-cancelled: nothing is scattered at all.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before = stageRuns("probe")
		if err := tc.run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled: err = %v, want context.Canceled", tc.name, err)
		}
		if got := stageRuns("probe") - before; got != 0 {
			t.Fatalf("%s: pre-cancelled read still probed on %d shards", tc.name, got)
		}

		// Count the checks one full read makes, then cancel at each in
		// turn: every one must surface as context.Canceled, and none may
		// reach the last stage on all four shards.
		probe := allow(1 << 30)
		if err := tc.run(probe); err != nil {
			t.Fatalf("%s: counting run: %v", tc.name, err)
		}
		checks := 1<<30 - probe.checks.Load()
		if checks < 1+3*4 {
			t.Fatalf("%s: expected the scatter's check plus >= 3 per shard, saw %d", tc.name, checks)
		}
		for n := int64(0); n < checks; n++ {
			before = stageRuns(tc.stage)
			if err := tc.run(allow(n)); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancel at check %d: err = %v, want context.Canceled", tc.name, n, err)
			}
			if got := stageRuns(tc.stage) - before; got >= 4 {
				t.Errorf("%s: cancel at check %d: %s stage still ran on all %d shards", tc.name, n, tc.stage, got)
			}
		}
	}
}
