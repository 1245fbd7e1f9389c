package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// TestServiceConcurrentTraffic hammers the HTTP layer with overlapping
// ingests, publishes, queries, searches, and fetches. The handlers are
// thin pass-throughs over the catalog, so this is an end-to-end check
// that the catalog's reader/writer discipline holds across the service
// boundary: every response must be a well-formed success or a defined
// client error, never a 500. Run under -race it also proves the handler
// plumbing itself shares no mutable state beyond what it synchronizes:
// metrics are on, so every request also goes through the per-endpoint
// request counters, and /search replies share pooled buffers.
func TestServiceConcurrentTraffic(t *testing.T) {
	cat, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{AutoRegister: true, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cat).Handler())
	defer ts.Close()

	// Seed one document so dynamic ARPS definitions exist before the
	// readers start issuing queries against them.
	code, body := post(t, ts.URL+"/ingest?owner=seed", "application/xml", xmlschema.Figure3Document)
	if code != http.StatusCreated {
		t.Fatalf("seed ingest: %d %s", code, body)
	}

	const (
		writers       = 3
		docsPerWriter = 8
		readers       = 5
	)
	done := make(chan struct{})
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			client := ts.Client()
			for i := 0; i < docsPerWriter; i++ {
				resp, err := client.Post(ts.URL+"/ingest?owner=writer", "application/xml",
					strings.NewReader(xmlschema.Figure3Document))
				if err != nil {
					t.Errorf("writer %d: ingest: %v", w, err)
					return
				}
				var out map[string]int64
				dec := json.NewDecoder(resp.Body)
				decErr := dec.Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated || decErr != nil {
					t.Errorf("writer %d: ingest status %d (%v)", w, resp.StatusCode, decErr)
					return
				}
				pub, err := client.Post(ts.URL+"/objects/"+itoa(out["id"])+"/publish", "", nil)
				if err != nil {
					t.Errorf("writer %d: publish: %v", w, err)
					return
				}
				pub.Body.Close()
				if pub.StatusCode != http.StatusOK {
					t.Errorf("writer %d: publish status %d", w, pub.StatusCode)
					return
				}
			}
		}(w)
	}
	go func() {
		wwg.Wait()
		close(done)
	}()

	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var code int
				var body string
				switch i % 4 {
				case 0:
					resp, err := client.Post(ts.URL+"/query", "application/json",
						strings.NewReader(`{"attrs":[{"name":"grid","source":"ARPS","elems":[{"name":"dx","source":"ARPS","op":"=","value":1000}]}]}`))
					if err != nil {
						t.Errorf("reader %d: query: %v", r, err)
						return
					}
					code = resp.StatusCode
					resp.Body.Close()
					if code != http.StatusOK {
						t.Errorf("reader %d: query status %d", r, code)
						return
					}
				case 1:
					code, body = get(t, ts.URL+"/fetch?id=1")
					if code != http.StatusOK || !strings.Contains(body, "LEADresource") {
						t.Errorf("reader %d: fetch status %d", r, code)
						return
					}
				case 2:
					code, _ = get(t, ts.URL+"/objects")
					if code != http.StatusOK {
						t.Errorf("reader %d: objects status %d", r, code)
						return
					}
				case 3:
					resp, err := client.Post(ts.URL+"/search", "application/json",
						strings.NewReader(`{"attrs":[{"name":"theme"}]}`))
					if err != nil {
						t.Errorf("reader %d: search: %v", r, err)
						return
					}
					// Replies come out of pooled buffers: each must
					// still decode to whole documents.
					var reply struct {
						Total   int `json:"total"`
						Results []struct {
							XML string `json:"xml"`
						} `json:"results"`
					}
					decErr := json.NewDecoder(resp.Body).Decode(&reply)
					code = resp.StatusCode
					resp.Body.Close()
					if code != http.StatusOK || decErr != nil || len(reply.Results) != reply.Total {
						t.Errorf("reader %d: search status %d, %v, %d of %d results", r, code, decErr, len(reply.Results), reply.Total)
						return
					}
					for _, res := range reply.Results {
						if !strings.HasPrefix(res.XML, "<LEADresource>") || !strings.HasSuffix(res.XML, "</LEADresource>") {
							t.Errorf("reader %d: search returned a torn document: %.80q", r, res.XML)
							return
						}
					}
				}
			}
		}(r)
	}
	rwg.Wait()

	if got := cat.ObjectCount(); got != 1+writers*docsPerWriter {
		t.Fatalf("object count = %d, want %d", got, 1+writers*docsPerWriter)
	}
}
