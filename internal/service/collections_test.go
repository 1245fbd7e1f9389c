package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// newCollServer builds a server with an ontology, one keyword-tagged
// object per term, and returns the test server plus object IDs.
func newCollServer(t *testing.T) (*httptest.Server, *catalog.Catalog) {
	t.Helper()
	cat, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cat)
	o, err := ontology.Parse(ontology.CFKeywords)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetOntology(o)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, key := range []string{"convective_precipitation_amount", "air_temperature"} {
		xml := `<LEADresource><resourceID>` + key + `</resourceID><data><idinfo><keywords>
		  <theme><themekt>CF</themekt><themekey>` + key + `</themekey></theme>
		</keywords></idinfo></data></LEADresource>`
		if _, err := cat.IngestXML("u", xml); err != nil {
			t.Fatal(err)
		}
	}
	return ts, cat
}

func reqJSON(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return readReply(t, resp)
}

func TestCollectionEndpoints(t *testing.T) {
	ts, _ := newCollServer(t)

	// Create a project with one child experiment.
	code, body := reqJSON(t, "POST", ts.URL+"/collections", `{"name":"proj","owner":"alice"}`)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	var created map[string]int64
	_ = json.Unmarshal([]byte(body), &created)
	proj := created["id"]
	code, body = reqJSON(t, "POST", ts.URL+"/collections",
		`{"name":"exp","owner":"alice","parent_id":`+itoa(proj)+`}`)
	if code != http.StatusCreated {
		t.Fatalf("create child: %d %s", code, body)
	}
	_ = json.Unmarshal([]byte(body), &created)
	exp := created["id"]

	// Membership: object 1 into the experiment.
	code, body = reqJSON(t, "PUT", ts.URL+"/collections/"+itoa(exp)+"/objects/1", "")
	if code != http.StatusOK {
		t.Fatalf("membership: %d %s", code, body)
	}
	// Listing.
	code, body = reqJSON(t, "GET", ts.URL+"/collections", "")
	if code != http.StatusOK || !strings.Contains(body, `"proj"`) || !strings.Contains(body, `"exp"`) {
		t.Fatalf("list: %d %s", code, body)
	}
	// Subtree objects from the project root.
	code, body = reqJSON(t, "GET", ts.URL+"/collections/"+itoa(proj)+"/objects", "")
	if code != http.StatusOK || !strings.Contains(body, "[1]") {
		t.Fatalf("objects: %d %s", code, body)
	}

	// Context-scoped query: object 2 is outside the project.
	query := `{"attrs":[{"name":"theme","elems":[{"name":"themekt","op":"=","value":"CF"}]}]}`
	code, body = reqJSON(t, "POST", ts.URL+"/query?collection="+itoa(proj), query)
	if code != http.StatusOK || !strings.Contains(body, "[1]") {
		t.Fatalf("scoped query: %d %s", code, body)
	}
	code, body = reqJSON(t, "POST", ts.URL+"/query", query)
	if code != http.StatusOK || !strings.Contains(body, "[1,2]") {
		t.Fatalf("global query: %d %s", code, body)
	}

	// Broader context: which collections contain matching objects.
	code, body = reqJSON(t, "POST", ts.URL+"/collections/containing", query)
	if code != http.StatusOK || !strings.Contains(body, itoa(proj)) || !strings.Contains(body, itoa(exp)) {
		t.Fatalf("containing: %d %s", code, body)
	}

	// Remove membership.
	code, body = reqJSON(t, "DELETE", ts.URL+"/collections/"+itoa(exp)+"/objects/1", "")
	if code != http.StatusOK || !strings.Contains(body, "true") {
		t.Fatalf("remove: %d %s", code, body)
	}
}

func TestOntologyExpansionOverHTTP(t *testing.T) {
	ts, _ := newCollServer(t)
	query := `{"attrs":[{"name":"theme","elems":[{"name":"themekey","op":"=","value":"precipitation"}]}]}`
	// Without expansion: nothing carries the broad term.
	code, body := reqJSON(t, "POST", ts.URL+"/query", query)
	if code != http.StatusOK || !strings.Contains(body, "[]") {
		t.Fatalf("unexpanded: %d %s", code, body)
	}
	// With expansion: the narrower-term object matches.
	code, body = reqJSON(t, "POST", ts.URL+"/query?expand=1", query)
	if code != http.StatusOK || !strings.Contains(body, "[1]") {
		t.Fatalf("expanded: %d %s", code, body)
	}
	// Search honors both parameters too.
	code, body = reqJSON(t, "POST", ts.URL+"/search?expand=1", query)
	if code != http.StatusOK || !strings.Contains(body, "convective_precipitation_amount") {
		t.Fatalf("expanded search: %d %s", code, body)
	}
}

func TestCollectionEndpointErrors(t *testing.T) {
	ts, _ := newCollServer(t)
	if code, _ := reqJSON(t, "POST", ts.URL+"/collections", `{"owner":"x"}`); code != http.StatusUnprocessableEntity {
		t.Errorf("nameless create = %d", code)
	}
	if code, _ := reqJSON(t, "PUT", ts.URL+"/collections/99/objects/1", ""); code != http.StatusUnprocessableEntity {
		t.Errorf("bad collection = %d", code)
	}
	if code, _ := reqJSON(t, "PUT", ts.URL+"/collections/abc/objects/1", ""); code != http.StatusBadRequest {
		t.Errorf("bad id = %d", code)
	}
	if code, _ := reqJSON(t, "GET", ts.URL+"/collections/99/objects", ""); code != http.StatusNotFound {
		t.Errorf("missing subtree = %d", code)
	}
	if code, _ := reqJSON(t, "POST", ts.URL+"/query?collection=abc",
		`{"attrs":[{"name":"theme"}]}`); code != http.StatusInternalServerError && code != http.StatusBadRequest {
		t.Errorf("bad scope = %d", code)
	}
}
