package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// env is what every run of one invocation shares.
type env struct {
	bin    string // built mdserver
	sz     sizes
	out    io.Writer // human-readable report
	spans  string    // directory the span files go to
	runDir string    // parent of per-run data directories
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func isSharded(wl string) bool { return wl == wlMixedSharded }
func doesWrite(wl string) bool { return wl == wlIngestDurable || wl == wlMixedSharded }

// primaryKind is the operation whose median is the workload's
// primary_p50_us: the one its users wait on most.
func primaryKind(wl string) opKind {
	switch wl {
	case wlFig4Cold:
		return opQuery
	case wlIngestDurable:
		return opIngest
	}
	return opSearch
}

// serverArgs are the persistence flags for a data directory; the flush
// policy is mdserver's default (fsync per commit, no group commit).
func serverArgs(wl, dir string) []string {
	every := strconv.Itoa(checkpointEvery)
	if isSharded(wl) {
		return []string{"-shards", strconv.Itoa(shards), "-shard-root", filepath.Join(dir, clusterDir), "-checkpoint-every", every}
	}
	return []string{"-wal", filepath.Join(dir, walName), "-checkpoint-every", every}
}

// setUp is the timed set-up: generate the corpus, load it, leave the
// files mdserver recovers from, start mdserver on a copy and wait for
// /healthz. The pristine preload stays in dir/preload for the traced
// replays.
func (e *env) setUp(ctx context.Context, g *opGen, wl, dir string) (*corpus, *server, time.Duration, error) {
	start := time.Now()
	preload, data := filepath.Join(dir, "preload"), filepath.Join(dir, "data")
	if err := os.MkdirAll(preload, 0o755); err != nil {
		return nil, nil, 0, err
	}
	c, err := buildPreload(g, isSharded(wl), preload)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("preload: %w", err)
	}
	if err := copyTree(preload, data); err != nil {
		return nil, nil, 0, err
	}
	srv, err := startServer(ctx, e.bin, data, serverArgs(wl, data)...)
	if err != nil {
		return nil, nil, 0, err
	}
	return c, srv, time.Since(start), nil
}

// runWorkload measures one workload once: set-up (several times, the
// last one kept), warm-up, the timed closed-loop run, the oracle, a
// graceful stop, and with trace on the in-process traced replays.
func (e *env) runWorkload(ctx context.Context, wl string, seed int64, dur time.Duration, trace bool) (*result, error) {
	dir, err := os.MkdirTemp(e.runDir, wl+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	g := newOpGen(seed, e.sz)
	reps := e.sz.SetupReps
	if trace {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var (
		c      *corpus
		srv    *server
		setups []float64
	)
	for i := 0; i < reps; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		var took time.Duration
		if c, srv, took, err = e.setUp(ctx, g, wl, sub); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < reps-1 {
			srv.kill()
			if err := os.RemoveAll(sub); err != nil {
				return nil, err
			}
		}
	}
	defer srv.kill()
	setupDir := filepath.Join(dir, fmt.Sprintf("setup%d", reps-1))

	d := newDriver(srv.base, g, c.ids, wl)
	defer d.close()
	d.warm()
	if err := srv.alive(); err != nil {
		return nil, err
	}
	tr, err := d.measure(ctx, dur, srv)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := srv.alive(); err != nil {
		return nil, err
	}
	_, peakRSS, err := srv.rssMB()
	if err != nil {
		return nil, err
	}

	failed, errs := tr.failed, tr.errs
	judged := 0
	for _, cp := range tr.captures {
		judged += cp.count
	}
	wrong, oerrs := newOracle(c, doesWrite(wl)).checkAll(tr.captures)
	failed, errs = failed+wrong, append(errs, oerrs...)
	if doesWrite(wl) {
		f, qerrs := checkQuiesced(srv.base, c, tr.acks)
		failed, errs = failed+f, append(errs, qerrs...)
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	disk, err := dirBytes(filepath.Join(setupDir, "data"), func(name string) bool { return name != "server.log" })
	if err != nil {
		return nil, err
	}

	if len(tr.opsPerS) == 0 || len(tr.lat[primaryKind(wl)]) == 0 {
		return nil, fmt.Errorf("%s: no successful operation in %v: %v", wl, dur, errs)
	}
	res := &result{Attempted: tr.attempted, Metrics: map[string]metric{}}
	if !trace {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{median(tr.opsPerS), "ops/s"}
		res.Metrics["primary_p50_us"] = metric{percentile(tr.lat[primaryKind(wl)], 0.50) / 1e3, "us"}
		res.Metrics["cpu_ms_per_op"] = metric{median(tr.cpuPerOp), "ms"}
		res.Metrics["server_rss_mb"] = metric{tr.rssMB, "MB"}
		res.Metrics["disk_bytes_per_doc_byte"] = metric{float64(disk) / float64(c.docBytes+tr.sentBytes), "ratio"}
	} else {
		tf, terrs, err := e.traced(g, c, wl, filepath.Join(setupDir, "preload"), dir, tr, res.Metrics)
		res.Metrics["service.peak_rss_mb"] = metric{peakRSS, "MB"}
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		failed, errs = failed+tf, append(errs, terrs...)
	}
	res.Failed, res.Correct = failed, failed == 0

	fmt.Fprintf(e.out, "\n== %s  seed=%d  measured=%.2fs  attempted=%d  failed=%d  judged_by_oracle=%d (%d distinct)  acked_ingests=%d\n",
		wl, seed, tr.wall.Seconds(), tr.attempted, failed, judged, len(tr.captures), len(tr.acks))
	fmt.Fprintf(e.out, "   ops/s per window: %.0f\n", tr.opsPerS)
	for _, m := range errs {
		fmt.Fprintln(e.out, "   FAILED:", m)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(e.out, "   %-40s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}
