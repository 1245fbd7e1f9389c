package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// S1ShardScaling measures the sharded cluster against the same workload
// on 1, 2, and 4 shards:
//
//   - ingest: concurrent writers spread a many-owner corpus across the
//     cluster; owner-hash routing means writers on different owners
//     contend on different shard instances instead of one write lock.
//   - routed queries: owner-scoped reads route to exactly one shard, so
//     each query evaluates against 1/N of the corpus — throughput should
//     grow with the shard count even on a single core.
//   - fan-out queries: superuser reads scatter to every shard and merge,
//     so per-query work stays roughly constant in N; this row bounds
//     what sharding costs when routing cannot help.
//
// Everything runs on in-memory filesystems with the read caches off, so
// the numbers isolate routing and evaluation rather than fsync or cache
// hits (those are experiments R1/R2 and C2).
func S1ShardScaling(o Options) (*Table, error) {
	t := &Table{
		ID:      "S1",
		Title:   "owner-hash sharding: throughput vs shard count",
		Claim:   "owner-routed queries touch one shard and 1/N of the data, so routed throughput scales with shards; fan-out queries pay a merge and stay flat",
		Columns: []string{"phase", "shards", "workers", "ops", "wall", "qps", "speedup"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(400)
	g := workload.New(cfg)
	docs := g.Corpus()

	const owners = 16
	owner := func(i int) string { return fmt.Sprintf("owner-%02d", i%owners) }

	// The query mix cycles the workload's shapes; every query is scoped
	// to one owner so the router sends it to exactly one shard. The
	// fan-out phase reuses the same mix with the owner cleared.
	type ownerQuery struct {
		owner string
		q     *catalog.Query
	}
	var routed []ownerQuery
	for i := 0; i < 32; i++ {
		var q *catalog.Query
		switch i % 4 {
		case 0:
			q = g.PointQuery(i, i, i)
		case 1:
			q = g.RangeQuery(i, i+1, 0.4)
		case 2:
			q = g.ThemeQuery(i)
		case 3:
			q = g.MultiQuery(i, 2)
		}
		q.Owner = owner(i)
		routed = append(routed, ownerQuery{owner: owner(i), q: q})
	}

	open := func(n int) (*shard.Cluster, error) {
		cl, err := shard.Open(shard.Options{
			Schema:     g.Schema,
			Root:       fmt.Sprintf("s1-%d", n),
			Shards:     n,
			Catalog:    catalog.Options{CacheSize: -1},
			Durability: catalog.DurabilityOptions{FS: faultio.NewMemFS()},
		})
		if err != nil {
			return nil, err
		}
		if err := cl.ForEachShard(func(_ int, c *catalog.Catalog) error {
			return g.RegisterDefinitions(c)
		}); err != nil {
			cl.Close()
			return nil, err
		}
		return cl, nil
	}

	const workers = 8
	queryTotal := o.scale(400)

	// run fans total ops across the worker pool and times the sweep.
	run := func(total int, op func(i int) error) (time.Duration, error) {
		next := make(chan int, total)
		for i := 0; i < total; i++ {
			next <- i
		}
		close(next)
		errs := make([]error, workers)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range next {
					if err := op(i); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return wall, nil
	}

	baseQPS := map[string]float64{}
	addRow := func(phase string, shards, ops int, wall time.Duration) {
		qps := float64(ops) / wall.Seconds()
		speedup := "1.00x"
		if base, ok := baseQPS[phase]; ok {
			speedup = fmt.Sprintf("%.2fx", qps/base)
		} else {
			baseQPS[phase] = qps
		}
		t.AddRow(phase, shards, workers, ops, wall, fmt.Sprintf("%.0f", qps), speedup)
	}

	for _, n := range []int{1, 2, 4} {
		cl, err := open(n)
		if err != nil {
			return nil, err
		}

		ingestWall, err := run(len(docs), func(i int) error {
			_, err := cl.Ingest(owner(i), docs[i])
			return err
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		addRow("ingest", n, len(docs), ingestWall)

		// Warm up once so lazily built state is in place before timing.
		if _, err := cl.Evaluate(routed[0].q); err != nil {
			cl.Close()
			return nil, err
		}
		routedWall, err := run(queryTotal, func(i int) error {
			_, err := cl.Evaluate(routed[i%len(routed)].q)
			return err
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		addRow("routed-query", n, queryTotal, routedWall)

		fanoutWall, err := run(queryTotal, func(i int) error {
			q := *routed[i%len(routed)].q
			q.Owner = ""
			_, err := cl.Evaluate(&q)
			return err
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		addRow("fanout-query", n, queryTotal, fanoutWall)

		if err := cl.Close(); err != nil {
			return nil, err
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d docs across %d owners; every routed query names one owner, so the router sends it to hash(owner) %% N without touching other shards", len(docs), owners),
		"routed speedup comes from data reduction (each shard holds 1/N of the corpus) plus shard-level concurrency; it holds even on one core",
		"fan-out queries evaluate on every shard and k-way merge, so their per-query work is constant in N — the row bounds the scatter-gather overhead",
		"in-memory filesystems and CacheSize -1 isolate routing+evaluation; fsync cost is R1/R2 territory and cache hits are C2",
		fmt.Sprintf("GOMAXPROCS=%d on this machine", runtime.GOMAXPROCS(0)))
	return t, nil
}
