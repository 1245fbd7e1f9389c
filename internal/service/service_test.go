package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func newTestServer(t *testing.T) (*httptest.Server, *catalog.Catalog) {
	t.Helper()
	cat, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cat).Handler())
	t.Cleanup(ts.Close)
	return ts, cat
}

func post(t *testing.T, url, contentType, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return readReply(t, resp)
}

// readReply reads and closes a response, returning its status and body.
func readReply(t *testing.T, resp *http.Response) (int, string) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readReply(t, resp)
}

func TestServiceEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	// Register the Figure 3 dynamic definitions over HTTP.
	code, body := post(t, ts.URL+"/define/attr", "application/json",
		`{"name":"grid","source":"ARPS"}`)
	if code != http.StatusCreated {
		t.Fatalf("define attr: %d %s", code, body)
	}
	var attrResp map[string]int64
	if err := json.Unmarshal([]byte(body), &attrResp); err != nil {
		t.Fatal(err)
	}
	gridID := attrResp["attr_id"]
	for _, e := range []string{"dx", "dz"} {
		code, body = post(t, ts.URL+"/define/elem", "application/json",
			`{"name":"`+e+`","source":"ARPS","attr_id":`+itoa(gridID)+`,"type":"float"}`)
		if code != http.StatusCreated {
			t.Fatalf("define elem %s: %d %s", e, code, body)
		}
	}
	code, body = post(t, ts.URL+"/define/attr", "application/json",
		`{"name":"grid-stretching","source":"ARPS","parent_id":`+itoa(gridID)+`}`)
	if code != http.StatusCreated {
		t.Fatalf("define sub attr: %d %s", code, body)
	}
	var subResp map[string]int64
	_ = json.Unmarshal([]byte(body), &subResp)
	code, body = post(t, ts.URL+"/define/elem", "application/json",
		`{"name":"dzmin","source":"ARPS","attr_id":`+itoa(subResp["attr_id"])+`,"type":"float"}`)
	if code != http.StatusCreated {
		t.Fatalf("define dzmin: %d %s", code, body)
	}
	post(t, ts.URL+"/define/elem", "application/json",
		`{"name":"reference-height","source":"ARPS","attr_id":`+itoa(subResp["attr_id"])+`,"type":"float"}`)

	// Ingest the Figure 3 document.
	code, body = post(t, ts.URL+"/ingest?owner=alice", "application/xml", xmlschema.Figure3Document)
	if code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, body)
	}
	var ingestResp map[string]int64
	_ = json.Unmarshal([]byte(body), &ingestResp)
	if ingestResp["id"] != 1 {
		t.Fatalf("ingest id = %d", ingestResp["id"])
	}

	// Query.
	code, body = post(t, ts.URL+"/query", "application/json",
		`{"attrs":[{"name":"grid","source":"ARPS","elems":[{"name":"dx","source":"ARPS","op":"=","value":1000}]}]}`)
	if code != http.StatusOK || !strings.Contains(body, "[1]") {
		t.Fatalf("query: %d %s", code, body)
	}

	// Search returns the XML.
	code, body = post(t, ts.URL+"/search", "application/json",
		`{"attrs":[{"name":"grid","source":"ARPS"}]}`)
	if code != http.StatusOK || !strings.Contains(body, "LEADresource") {
		t.Fatalf("search: %d %s", code, body)
	}

	// Objects listing.
	code, body = get(t, ts.URL+"/objects")
	if code != http.StatusOK || !strings.Contains(body, "alice") {
		t.Fatalf("objects: %d %s", code, body)
	}

	// Fetch reconstructs the document.
	code, body = get(t, ts.URL+"/fetch?id=1")
	if code != http.StatusOK {
		t.Fatalf("fetch: %d", code)
	}
	got, err := xmldoc.ParseString(body)
	if err != nil {
		t.Fatalf("fetched document not well-formed: %v", err)
	}
	want, _ := xmldoc.ParseString(xmlschema.Figure3Document)
	if !xmldoc.Equal(want, got) {
		t.Errorf("fetched document differs: %s", xmldoc.Diff(want, got))
	}
	// The reply is the §5 build itself, not a re-serialisation of it.
	if body != want.String() {
		t.Errorf("fetch body is not the ingested document's canonical bytes:\n got %q\nwant %q", body, want.String())
	}

	// Schema ordering table.
	code, body = get(t, ts.URL+"/schema")
	if code != http.StatusOK || !strings.Contains(body, "detailed [dynamic attribute]") {
		t.Fatalf("schema: %d %s", code, body)
	}
}

func TestServiceErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	// Bad XML.
	code, _ := post(t, ts.URL+"/ingest", "application/xml", "<broken")
	if code != http.StatusUnprocessableEntity {
		t.Errorf("bad xml code = %d", code)
	}
	// Bad query JSON.
	code, _ = post(t, ts.URL+"/query", "application/json", "not json")
	if code != http.StatusBadRequest {
		t.Errorf("bad json code = %d", code)
	}
	// Unknown definition in query.
	code, body := post(t, ts.URL+"/query", "application/json",
		`{"attrs":[{"name":"nosuch","source":"X"}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "unknown definition") {
		t.Errorf("unknown def: %d %s", code, body)
	}
	// Fetch missing.
	if code, _ := get(t, ts.URL+"/fetch?id=99"); code != http.StatusNotFound {
		t.Errorf("missing fetch code = %d", code)
	}
	if code, _ := get(t, ts.URL+"/fetch?id=abc"); code != http.StatusBadRequest {
		t.Errorf("bad id code = %d", code)
	}
	// Bad type in element definition.
	code, _ = post(t, ts.URL+"/define/elem", "application/json",
		`{"name":"x","attr_id":1,"type":"complex"}`)
	if code != http.StatusBadRequest {
		t.Errorf("bad type code = %d", code)
	}
	// Method not allowed.
	if code, _ := get(t, ts.URL+"/ingest"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest code = %d", code)
	}
}

func itoa(i int64) string {
	b, _ := json.Marshal(i)
	return string(b)
}
