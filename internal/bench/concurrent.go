package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// C1ConcurrentReaders measures read-path scaling under the catalog's
// reader/writer lock split: aggregate query throughput as 1, 2, 4, and
// 8 goroutines evaluate the Figure-4 pipeline against a loaded catalog,
// for the hybrid store and the CLOB-only baseline.
func C1ConcurrentReaders(o Options) (*Table, error) {
	t := &Table{
		ID:      "C1",
		Title:   "concurrent readers: query throughput vs goroutines",
		Claim:   "read evaluations share a read lock, so throughput scales with reader goroutines up to the core count",
		Columns: []string{"store", "readers", "queries", "wall", "qps", "speedup"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(300)
	g := workload.New(cfg)
	docs := g.Corpus()

	// The query mix cycles the workload's shapes so every stage of the
	// pipeline (point, range, nested containment, structural theme,
	// multi-criteria) contributes to the measured throughput.
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

	sweep := func(st baseline.Store, readers int) (time.Duration, error) {
		// Warm up once so lazily built state is in place before timing.
		if _, err := st.Evaluate(queries[0]); err != nil {
			return 0, err
		}
		next := make(chan int, total)
		for i := 0; i < total; i++ {
			next <- i
		}
		close(next)
		errs := make([]error, readers)
		start := time.Now()
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := range next {
					if _, err := st.Evaluate(queries[i%len(queries)]); err != nil {
						errs[r] = err
						return
					}
				}
			}(r)
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

	// C1 measures lock scaling of the evaluation pipeline itself; with
	// the read caches on, repeated queries would measure cache hits
	// instead (that comparison is experiment C2).
	c, err := catalog.Open(g.Schema, catalog.Options{CacheSize: -1})
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
	clob, _, err := loadStore(KindClob, g, docs, o)
	if err != nil {
		return nil, err
	}
	for _, store := range []struct {
		kind StoreKind
		st   baseline.Store
	}{{KindHybrid, baseline.Adapter{C: c}}, {KindClob, clob}} {
		var base time.Duration
		for _, readers := range []int{1, 2, 4, 8} {
			wall, err := sweep(store.st, readers)
			if err != nil {
				return nil, err
			}
			if readers == 1 {
				base = wall
			}
			qps := float64(total) / wall.Seconds()
			t.AddRow(string(store.kind), readers, total, wall,
				fmt.Sprintf("%.0f", qps), ratio(int64(base), int64(wall)))
		}
	}

	t.Notes = append(t.Notes,
		"expected shape: qps grows with readers up to the core count for both stores, since evaluation takes only the read lock",
		fmt.Sprintf("GOMAXPROCS=%d on this machine — with a single CPU no parallel speedup is observable", runtime.GOMAXPROCS(0)))
	return t, nil
}
