package bench

import (
	"fmt"
	"sort"
	"time"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// O1MetricsOverhead measures what the observability layer costs on the
// hot read path: the C1 single-threaded query stream runs against two
// otherwise-identical catalogs, one with no registry (every instrument
// handle nil, so each counter update is a single nil check) and one
// with the full registry plus the slow-query trace ring attached. The
// read caches are off in both, as in C1, so every query exercises the
// instrumented Figure-4 pipeline instead of a cache hit.
//
// The claim to verify (and record in EXPERIMENTS.md) is that the
// instrumented run stays within ~5% of the uninstrumented one.
func O1MetricsOverhead(o Options) (*Table, error) {
	t := &Table{
		ID:      "O1",
		Title:   "observability overhead: metrics+tracing on vs off",
		Claim:   "atomic counters and the slow-trace ring add at most a few percent to single-threaded query latency",
		Columns: []string{"config", "queries", "wall", "per-query", "vs off"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(300)
	g := workload.New(cfg)
	docs := g.Corpus()

	var queries []*catalog.Query
	for i := 0; i < 32; i++ {
		switch i % 5 {
		case 0:
			queries = append(queries, g.PointQuery(i, i, i))
		case 1:
			queries = append(queries, g.RangeQuery(i, i+1, 0.4))
		case 2:
			queries = append(queries, g.NestedQuery(i, i, 1+i%2))
		case 3:
			queries = append(queries, g.ThemeQuery(i))
		case 4:
			queries = append(queries, g.MultiQuery(i, 2))
		}
	}
	total := o.scale(400)

	open := func(opts catalog.Options) (baseline.Store, error) {
		opts.CacheSize = -1
		c, err := catalog.Open(g.Schema, opts)
		if err != nil {
			return nil, err
		}
		if err := g.RegisterDefinitions(c); err != nil {
			return nil, err
		}
		for _, d := range docs {
			if _, err := c.Ingest("bench", d); err != nil {
				return nil, err
			}
		}
		return baseline.Adapter{C: c}, nil
	}
	stream := func(st baseline.Store) func() error {
		return func() error {
			for i := 0; i < total; i++ {
				if _, err := st.Evaluate(queries[i%len(queries)]); err != nil {
					return err
				}
			}
			return nil
		}
	}

	off, err := open(catalog.Options{})
	if err != nil {
		return nil, err
	}
	// The instrumented arm publishes into the harness registry when one
	// was provided (mdbench -instruments), so the exported table carries
	// the counter deltas the run produced.
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	on, err := open(catalog.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}

	// Interleave the two arms run-by-run so clock drift and background
	// load hit both equally; each arm's median is over its own samples.
	offWall, onWall, err := medianInterleaved(o.runs(), stream(off), stream(on))
	if err != nil {
		return nil, err
	}
	t.AddRow("metrics off", total, offWall, offWall/time.Duration(total), "1.00x")
	t.AddRow("metrics+tracing on", total, onWall, onWall/time.Duration(total),
		ratio(int64(onWall), int64(offWall)))
	overhead := (float64(onWall)/float64(offWall) - 1) * 100
	t.Notes = append(t.Notes,
		fmt.Sprintf("instrumentation overhead: %+.1f%% single-threaded (target <= 5%%)", overhead),
		fmt.Sprintf("instrumented run recorded %.0f criterion-probe observations and kept the %d slowest traces",
			reg.Snapshot()["query_stage_nanos{stage=\"probe\"}_count"], catalog.DefaultTraceDepth))
	return t, nil
}

// medianInterleaved times a and b alternately (after one warmup each)
// and returns each arm's median, so slow machine-wide drift cannot bias
// the comparison toward whichever arm ran second.
func medianInterleaved(runs int, a, b func() error) (time.Duration, time.Duration, error) {
	if err := a(); err != nil {
		return 0, 0, err
	}
	if err := b(); err != nil {
		return 0, 0, err
	}
	at := make([]time.Duration, 0, runs)
	bt := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := a(); err != nil {
			return 0, 0, err
		}
		at = append(at, time.Since(start))
		start = time.Now()
		if err := b(); err != nil {
			return 0, 0, err
		}
		bt = append(bt, time.Since(start))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	sort.Slice(bt, func(i, j int) bool { return bt[i] < bt[j] })
	return at[len(at)/2], bt[len(bt)/2], nil
}
