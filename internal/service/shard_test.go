package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// shardDocXML builds a minimal LEAD document with one unique themekey.
func shardDocXML(i int) string {
	return fmt.Sprintf(`<LEADresource>
  <resourceID>lead:svc/%04d</resourceID>
  <data><idinfo><keywords><theme>
    <themekt>none</themekt>
    <themekey>svc-key-%04d</themekey>
  </theme></keywords></idinfo></data>
</LEADresource>`, i, i)
}

// openShardCluster opens an n-shard LEAD cluster on a fresh MemFS,
// closed with the test.
func openShardCluster(t *testing.T, n int, copts catalog.Options) *shard.Cluster {
	t.Helper()
	cl, err := shard.Open(shard.Options{
		Schema:     xmlschema.MustLEAD(),
		Root:       "svc",
		Shards:     n,
		Catalog:    copts,
		Durability: catalog.DurabilityOptions{FS: faultio.NewMemFS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// TestShardedService drives the full sharded wire surface: routed
// ingest, routed and fan-out queries, paging, fetch by global ID,
// publish, shard stats, a live rebalance over HTTP, and health.
func TestShardedService(t *testing.T) {
	cl := openShardCluster(t, 2, catalog.Options{})
	ts := httptest.NewServer(NewSharded(cl).Handler())
	defer ts.Close()

	post := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	const docs = 12
	gids := make([]int64, docs)
	for i := 0; i < docs; i++ {
		owner := fmt.Sprintf("tenant-%d", i%4)
		status, out := post("/ingest?owner="+owner, shardDocXML(i))
		if status != http.StatusCreated {
			t.Fatalf("ingest %d: status %d (%v)", i, status, out)
		}
		gids[i] = int64(out["id"].(float64))
	}

	queryJSON := func(i int, owner string) string {
		return fmt.Sprintf(`{"owner":%q,"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"svc-key-%04d"}]}]}`, owner, i)
	}
	// Superuser query fans out and finds each document exactly once.
	for i := 0; i < docs; i++ {
		status, out := post("/query", queryJSON(i, ""))
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d (%v)", i, status, out)
		}
		ids := out["ids"].([]any)
		if len(ids) != 1 || int64(ids[0].(float64)) != gids[i] {
			t.Fatalf("query %d: ids %v, want [%d]", i, ids, gids[i])
		}
	}
	// Owner-routed query sees the owner's own document.
	status, out := post("/query", queryJSON(3, "tenant-3"))
	if status != http.StatusOK || len(out["ids"].([]any)) != 1 {
		t.Fatalf("owner query: status %d %v", status, out)
	}
	// Cross-owner without fanout misses unpublished data; publish and
	// use the fan-out read.
	status, _ = post(fmt.Sprintf("/objects/%d/publish", gids[3]), "")
	if status != http.StatusOK {
		t.Fatalf("publish: status %d", status)
	}
	status, out = post("/query?fanout=1", queryJSON(3, "tenant-0"))
	if status != http.StatusOK || len(out["ids"].([]any)) != 1 {
		t.Fatalf("fanout query after publish: status %d %v", status, out)
	}

	// Paged fan-out search: pages partition the merged result.
	matchAll := `{"owner":"","attrs":[{"name":"theme","elems":[{"name":"themekt","op":"=","value":"none"}]}]}`
	status, out = post("/search?limit=5", matchAll)
	if status != http.StatusOK {
		t.Fatalf("search: status %d", status)
	}
	if total := int(out["total"].(float64)); total != docs {
		t.Fatalf("search total %d, want %d", total, docs)
	}
	if n := len(out["results"].([]any)); n != 5 {
		t.Fatalf("search page size %d, want 5", n)
	}

	// A cluster has no collections: a ?collection scope is refused, not
	// silently dropped.
	for _, path := range []string{"/query?collection=1", "/search?collection=1"} {
		if status, out := post(path, matchAll); status != http.StatusBadRequest {
			t.Fatalf("%s on a cluster: status %d (%v), want 400", path, status, out)
		}
	}

	// Fetch by global ID.
	resp, err := http.Get(fmt.Sprintf("%s/fetch?id=%d", ts.URL, gids[7]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch: status %d", resp.StatusCode)
	}

	// Shard stats and health.
	resp, err = http.Get(ts.URL + "/shardz")
	if err != nil {
		t.Fatal(err)
	}
	var stats []shard.ShardStat
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats) != 2 || stats[0].Objects+stats[1].Objects != docs {
		t.Fatalf("shardz: %+v", stats)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// Live rebalance over HTTP, then re-verify every document.
	status, out = post("/rebalance?shard=1&dir=svc/shard-1-new", "")
	if status != http.StatusOK {
		t.Fatalf("rebalance: status %d (%v)", status, out)
	}
	for i := 0; i < docs; i++ {
		status, out := post("/query", queryJSON(i, ""))
		if status != http.StatusOK || len(out["ids"].([]any)) != 1 {
			t.Fatalf("post-rebalance query %d: status %d %v", i, status, out)
		}
	}
}

// TestShardedOntologyExpansion: ?expand=1 widens the query before it
// reaches the backend, so it works over a cluster exactly as over one
// catalog — the narrower-term document is found on whichever shard its
// owner hashes to.
func TestShardedOntologyExpansion(t *testing.T) {
	cl := openShardCluster(t, 2, catalog.Options{})
	srv := NewSharded(cl)
	o, err := ontology.Parse(ontology.CFKeywords)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetOntology(o)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gids := map[string]int64{}
	for i, key := range []string{"convective_precipitation_amount", "air_temperature"} {
		xml := `<LEADresource><resourceID>` + key + `</resourceID><data><idinfo><keywords>
		  <theme><themekt>CF</themekt><themekey>` + key + `</themekey></theme>
		</keywords></idinfo></data></LEADresource>`
		// Owners chosen to land on different shards.
		gid, err := cl.IngestXML(fmt.Sprintf("tenant-%d", i), xml)
		if err != nil {
			t.Fatal(err)
		}
		gids[key] = gid
	}
	if cl.ShardFor("tenant-0") == cl.ShardFor("tenant-1") {
		t.Fatal("test premise gone: both owners hash to one shard")
	}

	query := `{"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"precipitation"}]}]}`
	if code, body := post(t, ts.URL+"/query", "application/json", query); code != http.StatusOK || !strings.Contains(body, "[]") {
		t.Fatalf("unexpanded: %d %s", code, body)
	}
	want := fmt.Sprintf("[%d]", gids["convective_precipitation_amount"])
	if code, body := post(t, ts.URL+"/query?expand=1", "application/json", query); code != http.StatusOK || !strings.Contains(body, want) {
		t.Fatalf("expanded: %d %s, want ids %s", code, body, want)
	}
	if code, body := post(t, ts.URL+"/search?expand=1", "application/json", query); code != http.StatusOK || !strings.Contains(body, "convective_precipitation_amount") {
		t.Fatalf("expanded search: %d %s", code, body)
	}
}

// TestShardedWireParity replays one table of requests — every shared
// endpoint plus the error cases — against New over a catalog and
// NewSharded over a 1-shard cluster, where a global ID equals the local
// one. Status, Content-Type and body must be identical, except the
// "shards" field a cluster adds to /healthz (and the ingest clock in
// /objects' "created").
func TestShardedWireParity(t *testing.T) {
	cat, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(New(cat).Handler())
	defer single.Close()
	sharded := httptest.NewServer(NewSharded(openShardCluster(t, 1, catalog.Options{})).Handler())
	defer sharded.Close()

	themeQuery := func(i int, owner string) string {
		return fmt.Sprintf(`{"owner":%q,"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"svc-key-%04d"}]}]}`, owner, i)
	}
	matchAll := `{"attrs":[{"name":"theme","elems":[{"name":"themekt","op":"=","value":"none"}]}]}`
	ranked := `{"rank":{"terms":["storm"],"k":10}}`
	steps := []struct {
		method, path, body string
		status             int
	}{
		{"POST", "/define/attr", `{"name":"grid","source":"ARPS"}`, 201},
		{"POST", "/define/elem", `{"name":"dx","source":"ARPS","attr_id":1,"type":"float"}`, 201},
		{"POST", "/define/elem", `{"name":"dy","source":"ARPS","attr_id":1,"type":"no-such-type"}`, 400},
		{"POST", "/ingest?owner=alice", shardDocXML(0), 201},
		{"POST", "/ingest?owner=bob", shardDocXML(1), 201},
		{"POST", "/ingest?owner=alice", rankDocXML(2, 3, 1), 201},
		{"POST", "/ingest?owner=alice", rankDocXML(3, 1, 3), 201},
		{"POST", "/ingest?owner=alice", "<not-lead/>", 422},
		{"POST", "/ingest?owner=alice", "<doc>" + strings.Repeat("y", maxIngestBody) + "</doc>", 413},
		{"POST", "/objects/2/publish", "", 200},
		{"POST", "/objects/2/unpublish", "", 200},
		{"POST", "/objects/2/publish", "", 200},
		{"POST", "/objects/99/publish", "", 404},
		{"POST", "/objects/x/publish", "", 400},
		{"POST", "/query", themeQuery(0, ""), 200},
		{"POST", "/query", themeQuery(1, "alice"), 200},
		{"POST", "/query?fanout=1", themeQuery(1, "alice"), 200},
		{"POST", "/query", themeQuery(7, ""), 200},
		{"POST", "/query", ranked, 400},
		{"POST", "/query", `{"attrs":[{"name":"no-such-attribute"}]}`, 400},
		{"POST", "/query", `{"name":"` + strings.Repeat("x", maxJSONBody) + `"}`, 413},
		{"POST", "/query", `{not json`, 400},
		{"POST", "/search", matchAll, 200},
		{"POST", "/search?offset=1&limit=1", matchAll, 200},
		{"POST", "/search?offset=9", matchAll, 200},
		{"POST", "/search?limit=abc", matchAll, 400},
		{"POST", "/search?offset=-3", matchAll, 400},
		{"POST", "/search?limit=1e3", matchAll, 400},
		{"POST", "/search", ranked, 200},
		{"POST", "/search?fanout=1&offset=1&limit=1", ranked, 200},
		{"POST", "/search?collection=1", ranked, 400},
		{"POST", "/search?limit=abc", ranked, 400},
		{"POST", "/search?offset=-3&limit=1", ranked, 400},
		{"GET", "/objects", "", 200},
		{"GET", "/fetch?id=1", "", 200},
		{"GET", "/fetch?id=99", "", 404},
		{"GET", "/fetch?id=x", "", 400},
		{"GET", "/metrics", "", 404},
		{"GET", "/healthz", "", 200},
	}
	created := regexp.MustCompile(`"created":"[^"]*"`)
	do := func(base string, i int) (int, string, string) {
		t.Helper()
		st := steps[i]
		req, err := http.NewRequest(st.method, base+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out := created.ReplaceAllString(string(body), `"created":""`)
		if st.path == "/healthz" {
			var h map[string]any
			if err := json.Unmarshal(body, &h); err != nil {
				t.Fatalf("healthz body: %v", err)
			}
			delete(h, "shards")
			out = fmt.Sprint(h)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), out
	}
	for i, st := range steps {
		body := st.body
		if len(body) > 60 {
			body = body[:60] + "..."
		}
		name := fmt.Sprintf("step %d %s %s %s", i, st.method, st.path, body)
		wantCode, wantType, wantBody := do(single.URL, i)
		gotCode, gotType, gotBody := do(sharded.URL, i)
		if wantCode != st.status {
			t.Errorf("%s: single catalog answered %d, table says %d: %s", name, wantCode, st.status, wantBody)
		}
		if gotCode != wantCode || gotType != wantType {
			t.Errorf("%s: sharded %d %q, single %d %q", name, gotCode, gotType, wantCode, wantType)
		}
		if gotBody != wantBody {
			t.Errorf("%s: bodies differ\nsharded: %s\nsingle:  %s", name, gotBody, wantBody)
		}
	}
}

// cancelAfter is a request context that reports cancellation after n
// Err checks: the client going away partway through the pipeline.
type cancelAfter struct {
	context.Context
	checks atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.checks.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestShardedQueryClientDisconnect: the request context reaches every
// shard's pipeline through the one /query handler, so a client that
// disconnects mid-query stops the fan-out at the next stage boundary
// instead of running it to completion for nobody.
func TestShardedQueryClientDisconnect(t *testing.T) {
	reg := obs.NewRegistry()
	cl := openShardCluster(t, 4, catalog.Options{CacheSize: -1, Metrics: reg})
	for i := 0; i < 8; i++ {
		if _, err := cl.IngestXML(fmt.Sprintf("tenant-%d", i), shardDocXML(i)); err != nil {
			t.Fatal(err)
		}
	}
	h := NewSharded(cl).Handler()
	intersects := reg.Histogram("query_stage_nanos", obs.L("stage", "intersect"))
	query := func(ctx context.Context) *httptest.ResponseRecorder {
		body := `{"attrs":[{"name":"theme","elems":[{"name":"themekt","op":"=","value":"none"}]}]}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(body)).WithContext(ctx))
		return rec
	}

	if rec := query(context.Background()); rec.Code != http.StatusOK || intersects.Count() != 4 {
		t.Fatalf("connected client: %d %s, %d intersect stages", rec.Code, rec.Body, intersects.Count())
	}
	// Gone after the scatter starts: one check for the scatter itself,
	// then each shard's first stage-boundary check fails.
	gone := &cancelAfter{Context: context.Background()}
	gone.checks.Store(1)
	rec := query(gone)
	if rec.Code == http.StatusOK || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
		t.Fatalf("disconnected client: %d %s, want the cancellation surfaced", rec.Code, rec.Body)
	}
	if intersects.Count() != 4 {
		t.Fatalf("disconnected client: %d intersect stages ran past the cancellation", intersects.Count()-4)
	}
}
