package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/service"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/textindex"
	"github.com/gridmeta/hybridcat/internal/wal"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// The traced run replays the first K operations of the timed sequence
// in this process, on one goroutine, against copies of the same
// preload. Nothing inside the program is instrumented: every span is
// recorded here, around a call into a layer's public function, and the
// counts come from a registry this harness owns. Three replays share
// the work so that none disturbs another's cache state:
//
//	handler pass  the request through service's ServeHTTP, registry on:
//	              handler medians and every registry-derived count
//	bare pass     the same with Metrics nil, interleaved with the
//	              handler pass request by request: what the registry costs
//	layer pass    the handler's call sequence made by hand, a span per
//	              layer call: decode, evaluate, response, encode, ...

// span is one line of the span file.
type span struct {
	Name   string `json:"name"`     // layer.Function
	Op     int    `json:"op"`       // request number in the replay; spans of one request share it
	Kind   string `json:"kind"`     // request type
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // line index of the causing span, -1 for a request's root
}

type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
	kind  string
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Kind: t.kind, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// in records fn as a span and returns how long it took.
func (t *tracer) in(name string, fn func()) time.Duration {
	i := t.begin(name)
	fn()
	return t.end(i)
}

// selfTimes groups each span's self time (its duration minus the part
// its direct children cover) by request type and span name.
func (t *tracer) selfTimes() map[string]map[string][]int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]map[string][]int64{}
	for i, s := range t.spans {
		if out[s.Kind] == nil {
			out[s.Kind] = map[string][]int64{}
		}
		out[s.Kind][s.Name] = append(out[s.Kind][s.Name], self[i])
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// backend is the program under replay: one durable catalog or a
// 4-shard cluster, opened on a private copy of the preload.
type backend struct {
	cat     *catalog.Catalog
	cl      *shard.Cluster
	shards  []*catalog.Catalog
	handler http.Handler
}

func openBackend(g *opGen, sharded bool, preload, dir string, reg *obs.Registry) (*backend, error) {
	if err := copyTree(preload, dir); err != nil {
		return nil, err
	}
	opts := catalog.Options{Metrics: reg}
	dopts := catalog.DurabilityOptions{CheckpointEvery: checkpointEvery}
	b := &backend{}
	if sharded {
		cl, err := shard.Open(shard.Options{Schema: g.gen.Schema, Root: filepath.Join(dir, clusterDir), Catalog: opts, Durability: dopts})
		if err != nil {
			return nil, err
		}
		b.cl, b.handler = cl, service.NewSharded(cl).Handler()
		_ = cl.ForEachShard(func(_ int, c *catalog.Catalog) error { b.shards = append(b.shards, c); return nil })
		return b, nil
	}
	dopts.WALPath = filepath.Join(dir, walName)
	cat, err := catalog.OpenDurable(g.gen.Schema, opts, dopts)
	if err != nil {
		return nil, err
	}
	b.cat, b.handler = cat, service.New(cat).Handler()
	return b, nil
}

func (b *backend) close() error {
	if b.cl != nil {
		return b.cl.Close()
	}
	return b.cat.Close()
}

// serve sends one request through the service's handler.
func (b *backend) serve(o *op) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	b.handler.ServeHTTP(rec, httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body)))
	return rec
}

// replay is the interleaved two-client sequence the timed run sends.
func replay(g *opGen, c *corpus, wl string, n int, each func(i int, o *op)) {
	nexts := make([]func() op, clients)
	for i := range nexts {
		nexts[i] = g.stream(wl, i)
	}
	for i := 0; i < n; i++ {
		o := nexts[i%clients]()
		g.materialize(&o, c.ids)
		each(i, &o)
	}
}

// handlerStats is what a handler pass observed.
type handlerStats struct {
	lat       [numKinds][]int64
	bytes     int64
	results   int64 // IDs matched across query, search and ranked requests
	docBytes  int64 // XML bytes ingested
	failed    int
	errs      []string
	counts    map[string]float64           // registry delta over the replay
	fsyncHist [obs.HistogramBuckets]uint64 // wal_fsync_nanos after the replay
}

// handlerPass replays through ServeHTTP on the instrumented backend b
// and, request by request in alternating order, on the bare one
// (Metrics nil), so that a slow spell of the machine falls on both.
// It returns b's observations with the registry's delta over the
// replay (warm-up excluded), and the bare backend's latencies.
func handlerPass(g *opGen, c *corpus, wl string, b, bare *backend, reg *obs.Registry, n int) (*handlerStats, [numKinds][]int64) {
	for _, o := range g.warmup(wl) {
		g.materialize(&o, c.ids)
		b.serve(&o)
		bare.serve(&o)
	}
	st := &handlerStats{}
	var bareLat [numKinds][]int64
	timeBare := func(o *op) {
		t0 := time.Now()
		bare.serve(o)
		bareLat[o.kind] = append(bareLat[o.kind], time.Since(t0).Nanoseconds())
	}
	before := reg.Snapshot()
	replay(g, c, wl, n, func(i int, o *op) {
		if i%2 == 1 {
			timeBare(o)
		}
		t0 := time.Now()
		rec := b.serve(o)
		st.lat[o.kind] = append(st.lat[o.kind], time.Since(t0).Nanoseconds())
		if i%2 == 0 {
			timeBare(o)
		}
		st.bytes += int64(rec.Body.Len())
		if rec.Code < 200 || rec.Code > 299 {
			st.failed++
			if len(st.errs) < 5 {
				st.errs = append(st.errs, fmt.Sprintf("traced %s %s: status %d", o.method, o.path, rec.Code))
			}
			return
		}
		switch o.kind {
		case opQuery:
			var reply struct {
				IDs []int64 `json:"ids"`
			}
			_ = json.Unmarshal(rec.Body.Bytes(), &reply) // the timed run's oracle judges replies
			st.results += int64(len(reply.IDs))
		case opSearch, opRanked:
			var reply struct {
				Total int `json:"total"`
			}
			_ = json.Unmarshal(rec.Body.Bytes(), &reply)
			st.results += int64(reply.Total)
		case opIngest:
			st.docBytes += int64(len(o.body))
		}
	})
	st.counts = obs.DiffSnapshots(before, reg.Snapshot())
	st.fsyncHist = reg.Histogram("wal_fsync_nanos").Buckets()
	return st, bareLat
}

// layerStats is what the layer pass measured beyond its spans.
type layerStats struct {
	evalCold, evalWarm []int64
	respColdNS         int64
	respColdDocs       int64
	ingestMem          []int64
	shredRows          int64
	shredDocs          int64
	routeOverhead      []int64
	scatterOverhead    []int64
	checkpointMS       float64
}

// layerPass performs each handler's call sequence by hand with a span
// around every call into a layer.
func layerPass(g *opGen, c *corpus, wl string, b *backend, reg *obs.Registry, n int, t *tracer) (*layerStats, error) {
	st := &layerStats{}
	evalMiss := reg.Counter("cache_misses_total", obs.L("layer", "evaluate"))
	respMiss := reg.Counter("cache_misses_total", obs.L("layer", "response"))
	twins := map[int]*catalog.Catalog{} // WAL-less copies, per shard
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// The catalog calls of the two topologies, behind the names the
	// sequence below uses.
	home := func(owner string) (int, *catalog.Catalog) {
		if b.cl == nil {
			return 0, b.cat
		}
		idx := b.cl.ShardFor(owner)
		return idx, b.shards[idx]
	}
	evaluate := func(q *catalog.Query) (ids []int64, err error) {
		misses := evalMiss.Value()
		d := t.in("catalog.Evaluate", func() {
			if b.cl != nil {
				ids, err = b.cl.Evaluate(q)
			} else {
				ids, err = b.cat.Evaluate(q)
			}
		})
		if evalMiss.Value() > misses {
			st.evalCold = append(st.evalCold, d.Nanoseconds())
		} else {
			st.evalWarm = append(st.evalWarm, d.Nanoseconds())
		}
		return ids, err
	}
	buildResponse := func(ids []int64) (resp []catalog.Response, err error) {
		misses := respMiss.Value()
		d := t.in("catalog.BuildResponse", func() {
			if b.cl != nil {
				resp, err = b.cl.BuildResponse(ids)
			} else {
				resp, err = b.cat.BuildResponse(ids)
			}
		})
		if cold := respMiss.Value() - misses; cold > 0 {
			st.respColdNS += d.Nanoseconds()
			st.respColdDocs += int64(cold)
		}
		return resp, err
	}
	encode := func(v any) {
		t.in("service.encode", func() {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			fail(enc.Encode(v))
		})
	}
	type result struct {
		ID    int64   `json:"id"`
		Score float64 `json:"score,omitempty"`
		XML   string  `json:"xml"`
	}
	page := func(ids []int64, limit int) []int64 {
		if limit > 0 && limit < len(ids) {
			return ids[:limit]
		}
		return ids
	}

	run := func(o *op) {
		var q *catalog.Query
		if o.q != nil {
			t.in("service.decode", func() {
				var err error
				q, err = catalog.ParseQueryJSON(o.body)
				fail(err)
			})
		}
		switch o.kind {
		case opQuery:
			ids, err := evaluate(q)
			fail(err)
			encode(map[string][]int64{"ids": ids})
		case opSearch:
			ids, err := evaluate(q)
			fail(err)
			resp, err := buildResponse(page(ids, o.limit))
			fail(err)
			results := make([]result, 0, len(resp))
			for _, r := range resp {
				results = append(results, result{ID: r.ObjectID, XML: r.XML})
			}
			encode(map[string]any{"total": len(ids), "results": results})
		case opRanked:
			var scored []catalog.ScoredID
			t.in("catalog.EvaluateRanked", func() {
				var err error
				if b.cl != nil {
					scored, err = b.cl.EvaluateRanked(q)
				} else {
					scored, err = b.cat.EvaluateRanked(q)
				}
				fail(err)
			})
			ids := make([]int64, len(scored))
			for i, s := range scored {
				ids[i] = s.ID
			}
			resp, err := buildResponse(page(ids, o.limit))
			fail(err)
			results := make([]result, 0, len(resp))
			for i, r := range resp {
				results = append(results, result{ID: r.ObjectID, Score: scored[i].Score, XML: r.XML})
			}
			encode(map[string]any{"total": len(scored), "results": results})
		case opFetch:
			var doc *xmldoc.Node
			t.in("catalog.FetchDocument", func() {
				var err error
				if b.cl != nil {
					doc, err = b.cl.FetchDocument(c.ids[o.doc])
				} else {
					doc, err = b.cat.FetchDocument(c.ids[o.doc])
				}
				fail(err)
			})
			if doc != nil {
				t.in("xmldoc.Node.WriteTo", func() {
					var buf bytes.Buffer
					fail(doc.WriteTo(&buf, 2))
				})
			}
		case opIngest:
			var doc *xmldoc.Node
			t.in("xmldoc.ParseString", func() {
				var err error
				doc, err = xmldoc.ParseString(string(o.body))
				fail(err)
			})
			if doc == nil {
				return
			}
			var id int64
			t.in("catalog.Ingest", func() {
				var err error
				if b.cl != nil {
					id, err = b.cl.Ingest(o.owner, doc)
				} else {
					id, err = b.cat.Ingest(o.owner, doc)
				}
				fail(err)
			})
			encode(map[string]int64{"id": id})
		}
	}

	// probes are extra calls made after a request, outside its span
	// tree: the same work on one layer alone, to price the layers above.
	probes := func(o *op) {
		switch {
		case o.kind == opIngest:
			doc, err := xmldoc.ParseString(string(o.body))
			if err != nil {
				return
			}
			idx, hc := home(o.owner)
			shredder := core.NewShredder(g.gen.Schema, hc.Reg)
			t.in("core.Shredder.Shred", func() {
				res, err := shredder.Shred(doc, core.Options{Owner: o.owner})
				fail(err)
				if res != nil {
					st.shredRows += int64(len(res.Clobs) + len(res.Attrs) + len(res.Elems) + len(res.SubAttrs))
					st.shredDocs++
				}
			})
			twin := twins[idx]
			if twin == nil {
				// A WAL-less copy of the owning catalog as it is now.
				var snap bytes.Buffer
				if err := hc.Save(&snap); err != nil {
					fail(err)
					return
				}
				if twin, err = catalog.Load(g.gen.Schema, catalog.Options{}, &snap); err != nil {
					fail(err)
					return
				}
				twins[idx] = twin
			}
			st.ingestMem = append(st.ingestMem, t.in("catalog.Ingest(no WAL)", func() {
				_, err := twin.Ingest(o.owner, doc)
				fail(err)
			}).Nanoseconds())
		case b.cl != nil && o.kind == opSearch:
			// Every call now hits the evaluate cache; what differs is the
			// router: owner hash, route count, ID globalisation.
			_, hc := home(o.q.Owner)
			direct := fastest(func() time.Duration {
				return t.in("shard: owning catalog.Evaluate", func() { _, _ = hc.Evaluate(o.q) })
			})
			routed := fastest(func() time.Duration {
				return t.in("shard.Cluster.Evaluate", func() { _, _ = b.cl.Evaluate(o.q) })
			})
			st.routeOverhead = append(st.routeOverhead, (routed - direct).Nanoseconds())
		case b.cl != nil && o.kind == opQuery:
			var slowest time.Duration
			for _, sc := range b.shards {
				d := fastest(func() time.Duration {
					return t.in("shard: one catalog.Evaluate", func() { _, _ = sc.Evaluate(o.q) })
				})
				if d > slowest {
					slowest = d
				}
			}
			all := fastest(func() time.Duration {
				return t.in("shard.Cluster.EvaluateAll", func() { _, _ = b.cl.EvaluateAll(o.q) })
			})
			st.scatterOverhead = append(st.scatterOverhead, (all - slowest).Nanoseconds())
		}
	}

	t.kind = "warmup"
	for _, o := range g.warmup(wl) {
		g.materialize(&o, c.ids)
		run(&o)
	}
	t.spans, t.t0 = t.spans[:0], time.Now() // warm-up spans are thrown away
	replay(g, c, wl, n, func(i int, o *op) {
		t.op, t.kind = i, o.kind.String()
		root := t.begin("op." + t.kind)
		run(o)
		t.end(root)
		t.kind = "probe"
		probes(o)
	})
	if doesWrite(wl) {
		start := time.Now()
		if b.cl != nil {
			fail(b.cl.ForEachShard(func(_ int, sc *catalog.Catalog) error { return sc.Checkpoint() }))
			st.checkpointMS = float64(time.Since(start).Microseconds()) / 1e3 / shards
		} else {
			fail(b.cat.Checkpoint())
			st.checkpointMS = float64(time.Since(start).Microseconds()) / 1e3
		}
	}
	return st, firstErr
}

// fastest is the quickest of three timings of the same cached call.
func fastest(timed func() time.Duration) time.Duration {
	best := timed()
	for i := 0; i < 2; i++ {
		if d := timed(); d < best {
			best = d
		}
	}
	return best
}

// walProbe times raw wal.Writer.Commit calls (append + fsync) of the
// catalog's average record size on the run's own disk.
func walProbe(dir string, recordBytes, n int, t *tracer) ([]int64, error) {
	w, err := wal.Open(faultio.OS{}, filepath.Join(dir, "probe.wal"), nil)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	payload := bytes.Repeat([]byte{0x5a}, recordBytes)
	var out []int64
	t.kind = "probe"
	for i := 0; i < n; i++ {
		var cerr error
		out = append(out, t.in("wal.Writer.Commit", func() { _, cerr = w.Commit(payload) }).Nanoseconds())
		if cerr != nil {
			return nil, cerr
		}
	}
	return out, nil
}

// textProbe prices the text index alone: one build over the documents
// a written shard holds, then a top-k per ranked request.
func textProbe(g *opGen, c *corpus, wl string, n int, t *tracer) (buildMS float64, topk []int64) {
	t.kind = "probe"
	var idx *textindex.Index
	buildMS = float64(t.in("textindex.Builder", func() {
		b := textindex.NewBuilder()
		for i, doc := range c.docs {
			if c.shardOf[i] != 0 {
				continue
			}
			doc.Walk(func(n *xmldoc.Node) bool {
				if n.IsLeaf() && n.Text != "" {
					b.Add(c.ids[i], n.Text)
				}
				return true
			})
		}
		idx = b.Build()
	}).Microseconds()) / 1e3
	replay(g, c, wl, n, func(_ int, o *op) {
		if o.kind == opRanked {
			terms := textindex.AnalyzeTerms(o.q.Rank.Terms)
			topk = append(topk, t.in("textindex.Index.TopK", func() { idx.TopK(terms, o.limit, nil, nil) }).Nanoseconds())
		}
	})
	return buildMS, topk
}

// crashCheck is the durability oracle: documents acknowledged by a
// durable catalog on a page-cache-modelling filesystem must all be
// there after power loss and recovery. It returns how many were lost.
func crashCheck(g *opGen, n int) (lost int, err error) {
	mem := faultio.NewMemFS()
	dopts := catalog.DurabilityOptions{FS: mem, WALPath: "crash.wal", CheckpointEvery: n/2 + 1}
	cat, err := catalog.OpenDurable(g.gen.Schema, catalog.Options{}, dopts)
	if err != nil {
		return 0, err
	}
	if err := g.gen.RegisterDefinitions(cat); err != nil {
		return 0, err
	}
	acked := map[int64]int{}
	for i := 0; i < n; i++ {
		d := g.sz.Docs + i
		id, err := cat.Ingest(ownerName(d), g.gen.Document(d))
		if err != nil {
			return 0, err
		}
		acked[id] = d
	}
	mem.Crash()
	rec, err := catalog.OpenDurable(g.gen.Schema, catalog.Options{}, dopts)
	if err != nil {
		return 0, fmt.Errorf("recovery after crash: %w", err)
	}
	for id, d := range acked {
		doc, err := rec.FetchDocument(id)
		if err != nil || !xmldoc.EqualUnordered(doc, g.gen.Document(d)) {
			lost++
		}
	}
	return lost, nil
}

// histogramP50 reads the median out of an obs power-of-two histogram
// as the middle of the bucket it falls in, in microseconds.
func histogramP50(buckets [obs.HistogramBuckets]uint64) float64 {
	var total, seen uint64
	for _, n := range buckets {
		total += n
	}
	for i, n := range buckets {
		seen += n
		if n > 0 && seen*2 >= total {
			return float64(obs.BucketBound(i)) * 0.75 / 1e3 // bucket i holds (bound/2, bound]
		}
	}
	return 0
}

// traced runs the three replays and the probes for one workload, adds
// every per-layer metric to out, writes the span file and prints the
// budget table. It returns the failures it found (non-2xx in the
// replay, lost acknowledged writes).
func (e *env) traced(g *opGen, c *corpus, wl, preload, dir string, tr *timedResult, out map[string]metric) (int, []string, error) {
	n := e.sz.TraceOps[wl]
	sharded := isSharded(wl)

	reg := obs.NewRegistry()
	hb, err := openBackend(g, sharded, preload, filepath.Join(dir, "pass-handler"), reg)
	if err != nil {
		return 0, nil, err
	}
	bb, err := openBackend(g, sharded, preload, filepath.Join(dir, "pass-bare"), nil)
	if err != nil {
		return 0, nil, err
	}
	hs, bareLat := handlerPass(g, c, wl, hb, bb, reg, n)
	if err := hb.close(); err != nil {
		return 0, nil, err
	}
	if err := bb.close(); err != nil {
		return 0, nil, err
	}

	lreg := obs.NewRegistry()
	lb, err := openBackend(g, sharded, preload, filepath.Join(dir, "pass-layer"), lreg)
	if err != nil {
		return 0, nil, err
	}
	t := &tracer{}
	ls, err := layerPass(g, c, wl, lb, lreg, n, t)
	if cerr := lb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, nil, err
	}

	var kinds [numKinds]int
	for k := range kinds {
		kinds[k] = len(hs.lat[k])
	}
	queries := float64(kinds[opQuery] + kinds[opSearch] + kinds[opRanked])
	ingests := float64(kinds[opIngest])
	cnt := func(key string) float64 { return hs.counts[key] }
	sumPrefix := func(prefix string) float64 {
		var s float64
		for k, v := range hs.counts {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}

	failed, errs := hs.failed, hs.errs
	var walCommit, topk []int64
	var textBuildMS float64
	lost := 0
	if doesWrite(wl) {
		recBytes := int(ratio(cnt("wal_append_bytes_total"), cnt("wal_appends_total")))
		if walCommit, err = walProbe(dir, recBytes, e.sz.WALProbes, t); err != nil {
			return 0, nil, err
		}
		if lost, err = crashCheck(g, e.sz.CrashDocs); err != nil {
			return 0, nil, err
		}
		if lost > 0 {
			failed += lost
			errs = append(errs, fmt.Sprintf("%d acknowledged documents lost after crash and recovery", lost))
		}
	}
	if kinds[opRanked] > 0 {
		textBuildMS, topk = textProbe(g, c, wl, n, t)
	}
	if err := os.MkdirAll(e.spans, 0o755); err != nil {
		return 0, nil, err
	}
	if err := t.write(filepath.Join(e.spans, wl+".jsonl")); err != nil {
		return 0, nil, err
	}

	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	self := t.selfTimes()
	selfMedian := func(kind opKind, name string) float64 { return medianNS(self[kind.String()][name]) }

	// service: the wire, the handler, and JSON in and out.
	var decode, encode []int64
	for k := opKind(0); k < numKinds; k++ {
		decode = append(decode, self[k.String()]["service.decode"]...)
		encode = append(encode, self[k.String()]["service.encode"]...)
	}
	set("service.decode_us", medianNS(decode), "us")
	set("service.encode_us", medianNS(encode), "us")
	set("service.resp_bytes_per_op", ratio(float64(hs.bytes), float64(n)), "bytes")
	for k := opKind(0); k < numKinds; k++ {
		client, handler := percentile(tr.lat[k], 0.50)/1e3, medianNS(hs.lat[k])
		set("service.handler_us."+k.String(), handler, "us")
		wire := 0.0
		if len(tr.lat[k]) > 0 && len(hs.lat[k]) > 0 {
			wire = client - handler
		}
		set("service.wire_overhead_us."+k.String(), wire, "us")
		set("service."+k.String()+"_p50_us", client, "us")
		set("service."+k.String()+"_p99_us", percentile(tr.lat[k], 0.99)/1e3, "us")
		set("service."+k.String()+"_n", float64(len(tr.lat[k])), "count")
	}
	set("service.non2xx", float64(tr.non2xx), "count")

	// catalog: Figure 4 evaluation, §5 response building, ingest.
	stage := func(s string) float64 { return cnt(`query_stage_nanos{stage="`+s+`"}_sum`) / 1e3 }
	set("catalog.evaluate_cold_us", medianNS(ls.evalCold), "us")
	set("catalog.evaluate_warm_us", medianNS(ls.evalWarm), "us")
	set("catalog.stage_probe_us", ratio(stage("probe"), queries), "us")
	set("catalog.stage_rollup_us", ratio(stage("rollup"), queries), "us")
	set("catalog.stage_intersect_us", ratio(stage("intersect"), queries), "us")
	set("catalog.stage_response_us", ratio(stage("response"), float64(kinds[opSearch]+kinds[opRanked])), "us")
	set("catalog.stage_rank_us", ratio(stage("rank"), float64(kinds[opRanked])), "us")
	set("catalog.response_us_per_doc", ratio(float64(ls.respColdNS)/1e3, float64(ls.respColdDocs)), "us")
	set("catalog.ingest_mem_us", medianNS(ls.ingestMem), "us")
	set("catalog.wal_commit_us", ratio(cnt("catalog_wal_commit_nanos_sum")/1e3, cnt("catalog_wal_commit_nanos_count")), "us")
	set("catalog.checkpoints", cnt("catalog_checkpoints_total"), "count")
	set("catalog.checkpoint_ms", ls.checkpointMS, "ms")

	// cache: useful outcomes per attempt, layer by layer.
	for _, layer := range []string{"evaluate", "resolve", "probe", "postings", "response"} {
		hits, misses := cnt(`cache_hits_total{layer="`+layer+`"}`), cnt(`cache_misses_total{layer="`+layer+`"}`)
		set("cache.hit_ratio."+layer, ratio(hits, hits+misses), "ratio")
	}
	set("cache.evictions", sumPrefix("cache_evictions_total"), "count")
	set("cache.stale_drops_per_write", ratio(sumPrefix("cache_stale_total"), ingests), "count")

	// relstore and bitset: work per query and per document.
	set("relstore.index_lookups_per_query", ratio(sumPrefix("relstore_index_lookups_total"), queries), "count")
	set("relstore.row_reads_per_result", ratio(sumPrefix("relstore_row_reads_total"), float64(hs.results)), "count")
	set("relstore.row_writes_per_doc", ratio(sumPrefix("relstore_row_writes_total"), ingests), "count")
	set("relstore.version_swaps", cnt("catalog_version_swaps_total"), "count")
	for _, kind := range []string{"array", "bitmap", "run"} {
		set("bitset.containers_per_query."+kind, ratio(cnt(`query_bitmap_containers_total{kind="`+kind+`"}`), queries), "count")
	}
	set("bitset.intersect_cardinality_avg", ratio(cnt("query_intersect_cardinality_sum"), cnt("query_intersect_cardinality_count")), "count")

	// xmldoc and core: the document's way in and out.
	set("xmldoc.parse_us_per_doc", selfMedian(opIngest, "xmldoc.ParseString"), "us")
	set("xmldoc.serialize_us_per_doc", selfMedian(opFetch, "xmldoc.Node.WriteTo"), "us")
	set("core.shred_us_per_doc", medianNS(self["probe"]["core.Shredder.Shred"]), "us")
	set("core.rows_per_doc", ratio(float64(ls.shredRows), float64(ls.shredDocs)), "count")

	// wal: flushes, log bytes, and the crash oracle.
	set("wal.fsyncs_per_doc", ratio(cnt("wal_fsyncs_total"), ingests), "count")
	set("wal.fsync_p50_us", histogramP50(hs.fsyncHist), "us")
	set("wal.commit_us", medianNS(walCommit), "us")
	set("wal.bytes_per_doc_byte", ratio(cnt("wal_append_bytes_total"), float64(hs.docBytes)), "ratio")
	batch := ratio(cnt("wal_group_records_total"), cnt("wal_group_batches_total"))
	if batch == 0 && cnt("wal_appends_total") > 0 {
		batch = 1 // fsync per commit: every flush carries one record
	}
	set("wal.group_batch_records_avg", batch, "count")
	set("wal.lost_acked_after_crash", float64(lost), "count")

	// textindex: how often the index is rebuilt against what scoring costs.
	set("textindex.builds_per_ranked_query", ratio(cnt("textindex_builds_total"), float64(kinds[opRanked])), "count")
	set("textindex.build_ms", textBuildMS, "ms")
	set("textindex.topk_us", medianNS(topk), "us")

	// shard: what the router adds (all zero on the single catalog).
	var routed, busiest float64
	for i := 0; i < shards; i++ {
		r := cnt(`shard_route_total{shard="` + strconv.Itoa(i) + `"}`)
		routed += r
		if r > busiest {
			busiest = r
		}
	}
	set("shard.routed_ratio", ratio(routed, routed+cnt("shard_fanout_queries_total")), "ratio")
	set("shard.route_overhead_us", medianNS(ls.routeOverhead), "us")
	set("shard.scatter_overhead_us", medianNS(ls.scatterOverhead), "us")
	set("shard.route_imbalance", ratio(busiest, routed/shards), "ratio")

	// Typical replay time with and without the registry: per request
	// type, count times median, so a stall in either pass does not count.
	var on, off float64
	for k := range hs.lat {
		on += float64(len(hs.lat[k])) * medianNS(hs.lat[k])
		off += float64(len(bareLat[k])) * medianNS(bareLat[k])
	}
	set("obs.overhead_pct", (on/off-1)*100, "%")

	printBudget(e.out, wl, tr, hs, self)
	return failed, errs, nil
}

// printBudget shows where each request type's client-side median goes:
// the wire, each layer's median self time, and what is left of the
// handler as its own row.
func printBudget(out io.Writer, wl string, tr *timedResult, hs *handlerStats, self map[string]map[string][]int64) {
	fmt.Fprintf(out, "\n-- %s latency budget (us; client p50 = wire + handler; handler = layer self times + remainder)\n", wl)
	for k := opKind(0); k < numKinds; k++ {
		if len(tr.lat[k]) == 0 || len(hs.lat[k]) == 0 {
			continue
		}
		client, handler := percentile(tr.lat[k], 0.50)/1e3, medianNS(hs.lat[k])
		fmt.Fprintf(out, "   %-7s client p50 %10.1f   (n=%d timed, %d traced)\n", k, client, len(tr.lat[k]), len(hs.lat[k]))
		fmt.Fprintf(out, "     %-38s %10.1f\n", "wire: socket, net/http, log, 2nd client", client-handler)
		names := make([]string, 0, len(self[k.String()]))
		for name := range self[k.String()] {
			names = append(names, name)
		}
		sort.Strings(names)
		explained := 0.0
		for _, name := range names {
			v := medianNS(self[k.String()][name])
			explained += v
			fmt.Fprintf(out, "     %-38s %10.1f\n", name, v)
		}
		fmt.Fprintf(out, "     %-38s %10.1f\n", "remainder (mux, body read, headers)", handler-explained)
	}
}
