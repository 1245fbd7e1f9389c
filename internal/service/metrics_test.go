package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// newObsServer opens a durable in-memory catalog with the full
// observability surface on — metrics registry, default trace ring, WAL
// on a MemFS — so every instrumented layer can contribute families to
// /metrics.
func newObsServer(t *testing.T) string {
	t.Helper()
	cat, err := catalog.OpenDurable(xmlschema.MustLEAD(),
		catalog.Options{Metrics: obs.NewRegistry()},
		catalog.DurabilityOptions{FS: faultio.NewMemFS(), WALPath: "cat.wal"})
	if err != nil {
		t.Fatal(err)
	}
	return newServerFor(t, cat)
}

// driveTraffic sends one mutation and a few reads through the HTTP
// layer so the relstore, cache, WAL, query, and http families all have
// non-zero samples.
func driveTraffic(t *testing.T, ts string) {
	t.Helper()
	if code, got := post(t, ts+"/ingest?owner=alice", "application/xml", xmlschema.Figure3Document); code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, got)
	}
	q := `{"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"convective_precipitation_amount"}]}]}`
	for i := 0; i < 2; i++ {
		if code, got := post(t, ts+"/query", "application/json", q); code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, code, got)
		}
	}
	if code, got := post(t, ts+"/search", "application/json", q); code != http.StatusOK {
		t.Fatalf("search: %d %s", code, got)
	}
}

// metricsTopologies are the two constructors /metrics is served by.
// open returns the server's base URL; with metrics off it is opened
// without a registry. extra lists the families only that topology has.
var metricsTopologies = []struct {
	name  string
	open  func(t *testing.T, metrics bool) string
	extra map[string]string
}{
	{"single", func(t *testing.T, metrics bool) string {
		if metrics {
			return newObsServer(t)
		}
		cat, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return newServerFor(t, cat)
	}, nil},
	{"sharded", func(t *testing.T, metrics bool) string {
		var copts catalog.Options
		if metrics {
			copts.Metrics = obs.NewRegistry()
		}
		ts := httptest.NewServer(NewSharded(openShardCluster(t, 2, copts)).Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}, map[string]string{
		"shard_route_total":          "counter",
		"shard_fanout_queries_total": "counter",
		"shard_objects":              "gauge",
	}},
}

// TestMetricsEndpoint drives real traffic and then parses the
// Prometheus text exposition line by line: every sample must belong to
// a declared family and carry a numeric value, and every instrumented
// layer (relstore, cache, WAL, query engine, HTTP) must be represented
// — on a cluster too, whose routes go through the same route().
func TestMetricsEndpoint(t *testing.T) {
	for _, topo := range metricsTopologies {
		t.Run(topo.name, func(t *testing.T) {
			testMetricsEndpoint(t, topo.open(t, true), topo.extra)
		})
	}
}

func testMetricsEndpoint(t *testing.T, ts string, extra map[string]string) {
	driveTraffic(t, ts)

	code, body := get(t, ts+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}

	families := map[string]string{} // family -> declared type
	sampled := map[string]bool{}    // family -> has at least one sample
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			families[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("sample value not numeric in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		// A histogram's _bucket/_sum/_count series trim back to the
		// declared family; counter and gauge samples match one exactly.
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		_, famOK := families[family]
		_, nameOK := families[name]
		if !famOK && !nameOK {
			t.Fatalf("sample %q has no # TYPE declaration", line)
		}
		sampled[family] = true
		sampled[name] = true
	}

	want := map[string]string{
		"relstore_row_reads_total":  "counter", // relstore layer
		"relstore_row_writes_total": "counter",
		"cache_hits_total":          "counter", // cache layer
		"cache_entries":             "gauge",
		"wal_appends_total":         "counter", // WAL layer
		"wal_fsync_nanos":           "histogram",
		"catalog_wal_commit_nanos":  "histogram",
		"catalog_op_nanos":          "histogram", // query engine
		"query_stage_nanos":         "histogram",
		"http_requests_total":       "counter", // service layer
		"http_request_nanos":        "histogram",
	}
	for fam, kind := range extra {
		want[fam] = kind
	}
	for fam, kind := range want {
		if families[fam] != kind {
			t.Errorf("family %s: declared type %q, want %q\n%s", fam, families[fam], kind, body)
		}
		if !sampled[fam] {
			t.Errorf("family %s declared but has no samples", fam)
		}
	}
	if sample := `http_requests_total{code="200",endpoint="POST /search"} 1`; !strings.Contains(body, sample+"\n") {
		t.Errorf("no per-endpoint request sample %s in\n%s", sample, body)
	}
}

// TestMetricsFamiliesDocumented pins OPERATIONS.md's metrics table to
// what the server exposes, as scripts/flagdoc.sh does for the flag
// table: a durable catalog and a 2-shard cluster are driven through
// ingest, query, search, ranked search and fetch, and every # TYPE
// family either exposes must have a table row, while every family the
// table names must be exposed by at least one of them. The replica_*
// families need a running tailer and are exempt.
func TestMetricsFamiliesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Metrics reference\n")
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		for _, name := range strings.Split(cells[1], ",") {
			documented[strings.Trim(strings.TrimSpace(name), "`")] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no families in OPERATIONS.md's metrics table")
	}

	exposed := map[string]bool{}
	for _, topo := range metricsTopologies {
		ts := topo.open(t, true)
		driveTraffic(t, ts)
		code, body := post(t, ts+"/search", "application/json", `{"rank":{"terms":["convective"],"k":10}}`)
		if code != http.StatusOK {
			t.Fatalf("%s ranked search: %d %s", topo.name, code, body)
		}
		var reply struct{ Results []struct{ ID int64 } }
		if err := json.Unmarshal([]byte(body), &reply); err != nil || len(reply.Results) == 0 {
			t.Fatalf("%s ranked search found nothing (%v): %s", topo.name, err, body)
		}
		if code, body := get(t, ts+"/fetch?id="+strconv.FormatInt(reply.Results[0].ID, 10)); code != http.StatusOK {
			t.Fatalf("%s fetch: %d %s", topo.name, code, body)
		}
		_, body = get(t, ts+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				fam := strings.Fields(rest)[0]
				exposed[fam] = true
				if !documented[fam] {
					t.Errorf("%s exposes %s, which OPERATIONS.md's metrics table does not list", topo.name, fam)
				}
			}
		}
	}
	for fam := range documented {
		if !exposed[fam] && !strings.HasPrefix(fam, "replica_") {
			t.Errorf("OPERATIONS.md lists %s, which neither topology exposes", fam)
		}
	}
}

// TestMetricsJSONFormat asserts ?format=json returns the structured
// registry state instead of the text exposition.
func TestMetricsJSONFormat(t *testing.T) {
	ts := newObsServer(t)
	driveTraffic(t, ts)
	code, body := get(t, ts+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("metrics json: %d %s", code, body)
	}
	var st obs.State
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("metrics?format=json not a State: %v\n%s", err, body)
	}
	if len(st.Counters) == 0 || len(st.Histograms) == 0 {
		t.Fatalf("expected counters and histograms in %s", body)
	}
}

// TestMetricsDisabled asserts the endpoint 404s with the standard JSON
// error shape when the backend has no registry.
func TestMetricsDisabled(t *testing.T) {
	for _, topo := range metricsTopologies {
		t.Run(topo.name, func(t *testing.T) {
			code, body := get(t, topo.open(t, false)+"/metrics")
			if code != http.StatusNotFound {
				t.Fatalf("metrics without registry: %d %s", code, body)
			}
			var e map[string]string
			if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
				t.Fatalf("expected standard JSON error body, got %s", body)
			}
		})
	}
}

// tracezPayload mirrors the /debug/tracez response shape.
type tracezPayload struct {
	Enabled bool         `json:"enabled"`
	Offered uint64       `json:"offered"`
	Traces  []*obs.Trace `json:"traces"`
}

// TestTracezEndpoint drives real requests and asserts the ring holds
// their traces with per-stage Figure-4 timings (the /search HTTP
// handler evaluates and builds as separate catalog operations so it can
// paginate between them), and that ?reset=1 clears the ring.
func TestTracezEndpoint(t *testing.T) {
	ts := newObsServer(t)
	driveTraffic(t, ts)

	code, body := get(t, ts+"/debug/tracez")
	if code != http.StatusOK {
		t.Fatalf("tracez: %d %s", code, body)
	}
	var p tracezPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("tracez body: %v\n%s", err, body)
	}
	if !p.Enabled || p.Offered == 0 || len(p.Traces) == 0 {
		t.Fatalf("expected recorded traces: %s", body)
	}
	byOp := map[string]map[string]bool{} // op name -> stage names seen
	for _, tr := range p.Traces {
		if tr.TotalNS <= 0 {
			t.Fatalf("trace %q has no total time: %s", tr.Name, body)
		}
		stages := byOp[tr.Name]
		if stages == nil {
			stages = map[string]bool{}
			byOp[tr.Name] = stages
		}
		for _, st := range tr.Stages {
			if st.DurNS < 0 || st.OffsetNS < 0 {
				t.Fatalf("negative stage timing in %s", body)
			}
			stages[st.Name] = true
		}
	}
	// The Figure-4 stages from the evaluate op, the §5 build from the
	// response op, and the WAL commit span from the ingest mutation.
	for op, want := range map[string][]string{
		"evaluate": {"probe", "rollup", "intersect"},
		"response": {"response"},
		"mutate":   {"wal_commit"},
	} {
		if byOp[op] == nil {
			t.Fatalf("no %q trace in %s", op, body)
		}
		for _, stage := range want {
			if !byOp[op][stage] {
				t.Errorf("%s trace missing stage %q: %s", op, stage, body)
			}
		}
	}

	if code, _ := get(t, ts+"/debug/tracez?reset=1"); code != http.StatusOK {
		t.Fatalf("tracez reset: %d", code)
	}
	_, body = get(t, ts+"/debug/tracez")
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Traces) != 0 {
		t.Fatalf("reset should clear the ring: %s", body)
	}
}

// TestDurabilityzEndpoint asserts the unified debug handler serves the
// durability counters as JSON.
func TestDurabilityzEndpoint(t *testing.T) {
	ts := newObsServer(t)
	driveTraffic(t, ts)
	code, body := get(t, ts+"/debug/durabilityz")
	if code != http.StatusOK {
		t.Fatalf("durabilityz: %d %s", code, body)
	}
	var st catalog.DurabilityStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("durabilityz body: %v\n%s", err, body)
	}
}
