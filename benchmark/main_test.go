package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// The same seed must give the same request bytes, and another seed
// other bytes: the driver compares runs by seed.
func TestStreamsAreSeeded(t *testing.T) {
	for _, wl := range workloadNames {
		a := newOpGen(7, smokeSizes).streamHash(wl, 150)
		if b := newOpGen(7, smokeSizes).streamHash(wl, 150); a != b {
			t.Errorf("%s: seed 7 gave two different streams (%x, %x)", wl, a, b)
		}
		if b := newOpGen(8, smokeSizes).streamHash(wl, 150); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl)
		}
	}
}

// fig4_cold must not let the evaluate cache hit: at least four times
// the cache's capacity in distinct query texts.
func TestFig4ColdTextsDoNotRepeat(t *testing.T) {
	g := newOpGen(3, fullSizes)
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		next := g.stream(wlFig4Cold, c)
		for i := 0; i < 10000; i++ {
			seen[string(next().body)] = true
		}
	}
	if want := 4 * catalog.DefaultCacheSize; len(seen) < want {
		t.Fatalf("%d distinct query texts in 20000 requests, want at least %d", len(seen), want)
	}
}

// The hot sets must fit every cache layer, and every member must be a
// distinct text or the set is smaller than it claims.
func TestHotSetsFitTheCaches(t *testing.T) {
	g := newOpGen(3, fullSizes)
	for name, set := range map[string][]op{wlSearchHot: g.hot, wlMixedSharded: g.mixed} {
		texts := map[string]bool{}
		for _, o := range set {
			texts[o.path+string(o.body)] = true
		}
		if len(texts) != len(set) {
			t.Errorf("%s: %d distinct requests in a hot set of %d", name, len(texts), len(set))
		}
		if len(set) >= catalog.DefaultCacheSize {
			t.Errorf("%s: hot set of %d does not fit a %d-entry cache layer", name, len(set), catalog.DefaultCacheSize)
		}
	}
	if len(g.hotIDs) >= catalog.DefaultCacheSize || len(g.hotIDs) > fullSizes.Docs {
		t.Errorf("fetch hot set of %d does not fit the cache or the corpus", len(g.hotIDs))
	}
}

func TestQueryLogRoundTrips(t *testing.T) {
	g := newOpGen(5, smokeSizes)
	for _, wl := range workloadNames {
		var buf bytes.Buffer
		if err := g.dumpQueryLog(&buf, wl, 100); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		qs, err := workload.ReadQueryLog(&buf)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if wl != wlIngestDurable && len(qs) == 0 {
			t.Errorf("%s: empty query log", wl)
		}
	}
}

// TestSmoke takes the -smoke configuration through the whole path:
// build and spawn mdserver, every workload timed and traced, the
// oracle, the span files, the JSON lines — and checks that the layers
// split as the workloads were designed to split them.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns mdserver")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness runs %q", i, w.Name, workloadNames[i])
		}
	}

	runOnce := func(args ...string) *result {
		t.Helper()
		var out bytes.Buffer
		if code := run(context.Background(), append([]string{"-smoke", "--seed", "11", "--seconds", "0.3"}, args...), &out); code != 0 {
			t.Fatalf("benchmark %v exited %d\n%s", args, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("benchmark %v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
		}
		return &res
	}
	sameMetrics := func(what string, got map[string]metric, want []metricSpec) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: metric %s [%s] of BENCHMARK.json reported as %+v (present=%v)", what, m.Name, m.Unit, g, ok)
			}
		}
	}

	layers := map[string]map[string]metric{}
	for _, wl := range workloadNames {
		// A traced run contains a whole timed run; the end-to-end
		// arithmetic on top of it is checked once per topology.
		if wl == wlFig4Cold || wl == wlMixedSharded {
			timed := runOnce("--workload", wl, "--trace", "0")
			sameMetrics(wl+" timed", timed.Metrics, bf.EndToEnd)
			for name, m := range timed.Metrics {
				// A smoke window is 30 ms and /proc counts CPU in 10 ms
				// ticks, so a starved test machine may see none.
				if m.Value <= 0 && name != "cpu_ms_per_op" {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl, name, m.Value)
				}
			}
		}
		traced := runOnce("--workload", wl, "--trace", "1")
		sameMetrics(wl+" traced", traced.Metrics, bf.PerLayer)
		layers[wl] = traced.Metrics

		f, err := os.Open(filepath.Join(root, buildDir, "spans", wl+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		sc, n := bufio.NewScanner(f), 0
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.End < s.Start || s.Parent >= n {
				t.Fatalf("%s span file line %d: %v %+v", wl, n, err, s)
			}
			n++
		}
		f.Close()
		if n < smokeSizes.TraceOps[wl] {
			t.Errorf("%s: %d spans for %d traced operations", wl, n, smokeSizes.TraceOps[wl])
		}
	}

	value := func(wl, name string) float64 { return layers[wl][name].Value }
	if v := value(wlFig4Cold, "cache.hit_ratio.evaluate"); v >= 0.05 {
		t.Errorf("fig4_cold evaluate cache hit ratio %v, designed to miss", v)
	}
	if v := value(wlSearchHot, "cache.hit_ratio.evaluate"); v <= 0.9 {
		t.Errorf("search_hot evaluate cache hit ratio %v, designed to hit", v)
	}
	for _, wl := range workloadNames {
		writes, sharded := doesWrite(wl), isSharded(wl)
		if got := value(wl, "wal.fsyncs_per_doc") > 0; got != writes {
			t.Errorf("%s: wal.fsyncs_per_doc = %v", wl, value(wl, "wal.fsyncs_per_doc"))
		}
		if got := value(wl, "textindex.builds_per_ranked_query") > 0; got != sharded {
			t.Errorf("%s: textindex.builds_per_ranked_query = %v", wl, value(wl, "textindex.builds_per_ranked_query"))
		}
		if got := value(wl, "shard.routed_ratio") > 0; got != sharded {
			t.Errorf("%s: shard.routed_ratio = %v", wl, value(wl, "shard.routed_ratio"))
		}
		if v := value(wl, "wal.lost_acked_after_crash"); v != 0 {
			t.Errorf("%s: %v acknowledged documents lost after a crash", wl, v)
		}
	}

	// One goroutine, no timers: a second traced run must count the same.
	again := runOnce("--workload", wlMixedSharded, "--trace", "1").Metrics
	for name, m := range layers[wlMixedSharded] {
		counted := m.Unit == "count" || m.Unit == "ratio" || m.Unit == "bytes"
		if strings.HasPrefix(name, "service.") && name != "service.resp_bytes_per_op" {
			counted = false // client-side counts of the timed run vary with its speed
		}
		if counted && again[name].Value != m.Value {
			t.Errorf("mixed_sharded: %s counted %v, then %v with the same seed", name, m.Value, again[name].Value)
		}
	}
}
