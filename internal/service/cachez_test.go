package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func newServerFor(t *testing.T, cat *catalog.Catalog) string {
	t.Helper()
	ts := httptest.NewServer(New(cat).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestCachezEndpoint(t *testing.T) {
	ts, cat := newTestServer(t)

	if _, err := cat.IngestXML("alice", xmlschema.Figure3Document); err != nil {
		t.Fatal(err)
	}
	// Run the same query twice so the second hits the evaluate cache.
	body := `{"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"convective_precipitation_amount"}]}]}`
	for i := 0; i < 2; i++ {
		if code, got := post(t, ts.URL+"/query", "application/json", body); code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, code, got)
		}
	}

	code, got := get(t, ts.URL+"/debug/cachez")
	if code != http.StatusOK {
		t.Fatalf("cachez: %d %s", code, got)
	}
	var st catalog.CacheStats
	if err := json.Unmarshal([]byte(got), &st); err != nil {
		t.Fatalf("cachez body not CacheStats JSON: %v\n%s", err, got)
	}
	if !st.Enabled {
		t.Fatalf("caching should default on: %s", got)
	}
	if st.DataGeneration == 0 {
		t.Fatalf("ingest should have advanced the data generation: %s", got)
	}
	if st.Evaluate.Hits == 0 || st.Evaluate.Misses == 0 {
		t.Fatalf("expected one miss then one hit on the evaluate layer: %s", got)
	}
}

func TestCachezEndpointDisabled(t *testing.T) {
	cat, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := newServerFor(t, cat)
	code, got := get(t, ts+"/debug/cachez")
	if code != http.StatusOK {
		t.Fatalf("cachez: %d %s", code, got)
	}
	var st catalog.CacheStats
	if err := json.Unmarshal([]byte(got), &st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatalf("cache should be disabled: %s", got)
	}
}

// TestCacheSurfacePinned pins what an operator sees of the read caches
// after a cold and a warm /search: the exact key set of /debug/cachez
// and of each layer in it, the exact cache_* metric families, and the
// exact layer labels of cache_hits_total. A layer or a counter cannot
// be added (or come back) without this table changing.
func TestCacheSurfacePinned(t *testing.T) {
	ts := newObsServer(t)
	if code, got := post(t, ts+"/ingest?owner=alice", "application/xml", xmlschema.Figure3Document); code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, got)
	}
	q := `{"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"convective_precipitation_amount"}]}]}`
	for i := 0; i < 2; i++ {
		if code, got := post(t, ts+"/search", "application/json", q); code != http.StatusOK {
			t.Fatalf("search %d: %d %s", i, code, got)
		}
	}

	jsonKeys := func(body string) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("not a JSON object: %v\n%s", err, body)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		return keys
	}
	layerKeys := func(layer string) func(body string) []string {
		return func(body string) []string {
			var m map[string]json.RawMessage
			if err := json.Unmarshal([]byte(body), &m); err != nil {
				t.Fatalf("not a JSON object: %v\n%s", err, body)
			}
			return jsonKeys(string(m[layer]))
		}
	}
	cacheFamilies := func(body string) []string {
		var fams []string
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE cache_"); ok {
				fams = append(fams, "cache_"+strings.Fields(rest)[0])
			}
		}
		return fams
	}
	hitLayers := func(body string) []string {
		var layers []string
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, `cache_hits_total{layer="`); ok {
				layers = append(layers, rest[:strings.IndexByte(rest, '"')])
			}
		}
		return layers
	}
	layerFields := []string{"capacity", "entries", "evictions", "hits", "misses", "stale"}
	for _, tc := range []struct {
		path  string
		names func(body string) []string
		want  []string
	}{
		{"/debug/cachez", jsonKeys, []string{"data_generation", "enabled", "evaluate", "postings", "response"}},
		{"/debug/cachez", layerKeys("evaluate"), layerFields},
		{"/debug/cachez", layerKeys("postings"), layerFields},
		{"/debug/cachez", layerKeys("response"), layerFields},
		{"/metrics", cacheFamilies, []string{"cache_capacity", "cache_entries", "cache_evictions_total", "cache_hits_total", "cache_misses_total", "cache_stale_total"}},
		{"/metrics", hitLayers, []string{"evaluate", "postings", "response"}},
	} {
		code, body := get(t, ts+tc.path)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.path, code, body)
		}
		got := tc.names(body)
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s exposes %v, want exactly %v", tc.path, got, tc.want)
		}
	}
}
