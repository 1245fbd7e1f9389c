package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/replica"
	"github.com/gridmeta/hybridcat/internal/retry"
	"github.com/gridmeta/hybridcat/internal/service"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// R2Replication quantifies the two halves of the replication design:
//
//   - group commit: the same corpus ingested by 1/2/4/8 concurrent
//     writers through the one durable commit path. A single writer pays
//     one fsync per record with no collection window; records that
//     concurrent writers append while a batch is syncing share the next
//     fsync, so throughput should scale with writers instead of being
//     serialized behind the sync.
//   - replica lag: a live tailer follows the primary over HTTP while
//     writers ingest at increasing rates; the lag samples show how far
//     a replica trails (in log records) at each ingest rate and how
//     fast it converges once the ingest stops.
//
// Files live in a temp directory so fsync hits a real file system.
func R2Replication(o Options) (*Table, error) {
	t := &Table{
		ID:      "R2",
		Title:   "group commit and WAL-shipped replication: writer scaling and replica lag",
		Claim:   "group commit amortizes fsync across concurrent writers; replica lag stays bounded and converges after ingest stops",
		Columns: []string{"phase", "config", "writers", "docs", "wall", "per-doc", "detail"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(240)
	g := workload.New(cfg)
	docs := g.Corpus()

	dir, err := os.MkdirTemp("", "hybridcat-r2-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// syncDelay models a storage device with a real flush cost (spinning
	// disk / network volume); the build machine's temp filesystem syncs
	// in microseconds, which would hide exactly the cost group commit
	// exists to amortize.
	const syncDelay = 2 * time.Millisecond

	open := func(name string, fs faultio.FS) (*catalog.Catalog, error) {
		walPath := filepath.Join(dir, name, "cat.wal")
		if err := os.MkdirAll(filepath.Dir(walPath), 0o755); err != nil {
			return nil, err
		}
		return catalog.OpenDurable(g.Schema, catalog.Options{}, catalog.DurabilityOptions{
			FS: fs, WALPath: walPath, CheckpointEvery: 0,
		})
	}

	// ingestConcurrent splits the corpus across n writers and ingests it
	// all, returning the wall time.
	ingestConcurrent := func(c *catalog.Catalog, n int) (time.Duration, error) {
		if err := g.RegisterDefinitions(c); err != nil {
			return 0, err
		}
		var wg sync.WaitGroup
		errs := make(chan error, n)
		start := time.Now()
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(chunk []*xmldoc.Node) {
				defer wg.Done()
				for _, d := range chunk {
					if _, err := c.Ingest("bench", d); err != nil {
						errs <- err
						return
					}
				}
			}(docs[w*len(docs)/n : (w+1)*len(docs)/n])
		}
		wg.Wait()
		wall := time.Since(start)
		close(errs)
		if err := <-errs; err != nil {
			return 0, err
		}
		return wall, nil
	}

	for _, writers := range []int{1, 2, 4, 8} {
		c, err := open(fmt.Sprintf("ingest-%d", writers), faultio.NewSlowFS(faultio.OS{}, syncDelay))
		if err != nil {
			return nil, err
		}
		wall, err := ingestConcurrent(c, writers)
		if err != nil {
			return nil, err
		}
		st := c.DurabilityStats()
		detail := fmt.Sprintf("%.0f docs/s", float64(len(docs))/wall.Seconds())
		if st.Group.Batches > 0 {
			detail += fmt.Sprintf(", %.2f recs/batch",
				float64(st.Group.Records)/float64(st.Group.Batches))
		}
		t.AddRow("ingest", "group-commit", writers, len(docs), wall,
			wall/time.Duration(len(docs)), detail)
		if err := c.Close(); err != nil {
			return nil, err
		}
	}

	// Replica lag vs ingest rate: a primary behind the real service
	// handler, a live tailer, and a throttled writer. Lag is sampled
	// while the ingest runs; convergence is timed after it stops.
	lagDocs := o.scale(120)
	for _, rate := range []int{100, 400, 0} { // docs/sec; 0 = unthrottled
		c, err := open(fmt.Sprintf("lag-%d", rate), faultio.OS{})
		if err != nil {
			return nil, err
		}
		if err := g.RegisterDefinitions(c); err != nil {
			return nil, err
		}
		ts := httptest.NewServer(service.New(c).Handler())
		rep, err := replica.New(replica.Options{
			Primary:  ts.URL,
			Schema:   g.Schema,
			Retry:    retry.DefaultPolicy,
			PollWait: 20 * time.Millisecond,
		})
		if err != nil {
			ts.Close()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		tailDone := make(chan error, 1)
		go func() { tailDone <- rep.Run(ctx) }()

		var maxLag atomic.Uint64
		sampleStop := make(chan struct{})
		var sampleWG sync.WaitGroup
		sampleWG.Add(1)
		go func() {
			defer sampleWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-sampleStop:
					return
				case <-tick.C:
					if p, a := c.PublishedSeq(), rep.AppliedSeq(); p > a && p-a > maxLag.Load() {
						maxLag.Store(p - a)
					}
				}
			}
		}()

		var gap time.Duration
		if rate > 0 {
			gap = time.Second / time.Duration(rate)
		}
		start := time.Now()
		for i := 0; i < lagDocs; i++ {
			next := start.Add(time.Duration(i) * gap)
			if d := time.Until(next); gap > 0 && d > 0 {
				time.Sleep(d)
			}
			if _, err := c.Ingest("bench", docs[i%len(docs)]); err != nil {
				cancel()
				ts.Close()
				return nil, err
			}
		}
		ingestWall := time.Since(start)

		// Convergence: how long until the replica's cursor reaches the
		// primary's watermark after the last commit.
		target := c.PublishedSeq()
		catchStart := time.Now()
		for rep.AppliedSeq() < target {
			if time.Since(catchStart) > 30*time.Second {
				cancel()
				ts.Close()
				return nil, fmt.Errorf("bench R2: replica stuck at %d, want %d", rep.AppliedSeq(), target)
			}
			time.Sleep(time.Millisecond)
		}
		catchup := time.Since(catchStart)
		close(sampleStop)
		sampleWG.Wait()
		cancel()
		if err := <-tailDone; !errors.Is(err, context.Canceled) {
			ts.Close()
			return nil, fmt.Errorf("bench R2: tailer: %w", err)
		}
		ts.Close()

		config := fmt.Sprintf("%d docs/s", rate)
		if rate == 0 {
			config = "unthrottled"
		}
		t.AddRow("replica-lag", config, 1, lagDocs, ingestWall,
			ingestWall/time.Duration(lagDocs),
			fmt.Sprintf("max lag %d recs, catch-up %s", maxLag.Load(), fmtDuration(catchup)))
		if err := c.Close(); err != nil {
			return nil, err
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("ingest runs on a latency-modeled filesystem (%s per fsync) so the sync cost is realistic; replica-lag runs on the plain OS filesystem", syncDelay),
		"every commit is fsynced before it is acknowledged; records appended while a batch syncs share the next fsync (recs/batch shows the amortization)",
		"with one writer every batch holds one record and no collection window delays it: one fsync per document",
		"replica lag is sampled every 2ms as primary published seq minus replica applied seq; catch-up is the drain time after the last commit",
		"expected shape: throughput scales with writers as batches grow; lag grows with ingest rate but converges quickly once ingest stops")
	return t, nil
}
