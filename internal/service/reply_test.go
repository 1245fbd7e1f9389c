package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// structuralResult is one structural /search result as the handler
// wrote it through writeJSON before the reply was appended by hand
// (rankedResult, in rank_test.go, is the ranked one): the reference the
// appended bytes are held to.
type structuralResult struct {
	ID  int64  `json:"id"`
	XML string `json:"xml"`
}

// encodingJSONReply is what writeJSON sends for a /search reply.
func encodingJSONReply(t *testing.T, total int, results any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(map[string]any{"total": total, "results": results}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// reencodeSearchReply decodes a /search reply and encodes it again the
// way writeJSON would, ranked if any result carries a score.
func reencodeSearchReply(t *testing.T, body []byte) []byte {
	t.Helper()
	var reply struct {
		Total   int `json:"total"`
		Results []struct {
			ID    int64    `json:"id"`
			Score *float64 `json:"score"`
			XML   string   `json:"xml"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("search reply is not JSON: %v\n%s", err, body)
	}
	structural := make([]structuralResult, 0, len(reply.Results))
	ranked := make([]rankedResult, 0, len(reply.Results))
	for _, r := range reply.Results {
		structural = append(structural, structuralResult{r.ID, r.XML})
		if r.Score != nil {
			ranked = append(ranked, rankedResult{r.ID, *r.Score, r.XML})
		}
	}
	if len(ranked) > 0 {
		return encodingJSONReply(t, reply.Total, ranked)
	}
	return encodingJSONReply(t, reply.Total, structural)
}

// FuzzSearchReplyMatchesEncodingJSON holds both /search reply writers to
// encoding/json's bytes (HTML escaping off) over arbitrary documents,
// IDs, scores and page sizes: invalid UTF-8 becomes �, U+2028 and
// U+2029 are escaped, control bytes take their short or \u00XX forms,
// and a score switches to exponent form where encoding/json does.
func FuzzSearchReplyMatchesEncodingJSON(f *testing.F) {
	var ctl []byte
	for b := byte(0); b < 0x20; b++ {
		ctl = append(ctl, b)
	}
	for _, seed := range []struct {
		xml   string
		id    int64
		score float64
		n     uint8
	}{
		{"<a>line\u2028para\u2029</a>", 1, 0, 1},
		{"<a>\xff\xfe bad \xc3\x28 utf-8 \xed\xa0\x80</a>", 2, 1e-7, 2},
		{string(ctl), 3, 123456789.0, 3},
		{`<a t="q">"quoted" \back\slash\ <>&amp;</a>`, 4, 1e21, 2},
		{"", 0, 0, 0},
		{"<a/>", -5, -2.5e-9, 1},
	} {
		f.Add(seed.xml, seed.id, seed.score, seed.n)
	}
	f.Fuzz(func(t *testing.T, xml string, id int64, score float64, n uint8) {
		docs := []string{xml, xml + xml, xml[len(xml)/2:]}[:n%4]
		var resp []catalog.Response
		var ranked []catalog.RankedResponse
		// The handlers encoded a non-nil slice: an empty page is [].
		wantStructural := []structuralResult{}
		wantRanked := []rankedResult{}
		for i, doc := range docs {
			r := catalog.Response{ObjectID: id + int64(i), XML: doc}
			s := score * float64(i+1)
			resp = append(resp, r)
			ranked = append(ranked, r.Ranked(s))
			wantStructural = append(wantStructural, structuralResult{r.ObjectID, doc})
			wantRanked = append(wantRanked, rankedResult{r.ObjectID, s, doc})
		}
		total := int(id % 1000)
		if want, got := encodingJSONReply(t, total, wantStructural), appendSearchReply(nil, resp, total); !bytes.Equal(got, want) {
			t.Errorf("structural reply\n got: %q\nwant: %q", got, want)
		}
		for _, r := range ranked {
			if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
				return // encoding/json refuses it; the handler answers 500
			}
		}
		if want, got := encodingJSONReply(t, total, wantRanked), appendRankedReply(nil, ranked, total); !bytes.Equal(got, want) {
			t.Errorf("ranked reply\n got: %q\nwant: %q", got, want)
		}
	})
}

// TestFetchStatusUnknownIDOnCluster: a global ID below the shard count
// names no object on any shard, so /fetch answers 404 like any other
// missing object, and a /search page holding it skips it.
func TestFetchStatusUnknownIDOnCluster(t *testing.T) {
	cl := openShardCluster(t, 4, catalog.Options{})
	ts := httptest.NewServer(NewSharded(cl).Handler())
	defer ts.Close()
	gid, err := cl.IngestXML("alice", xmlschema.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"1", "0", "-4"} {
		if code, body := get(t, ts.URL+"/fetch?id="+id); code != http.StatusNotFound {
			t.Errorf("/fetch?id=%s on a 4-shard cluster: %d %s, want 404", id, code, body)
		}
	}
	resp, err := cl.BuildResponse([]int64{1, gid, 2})
	if err != nil || len(resp) != 1 || resp[0].ObjectID != gid {
		t.Fatalf("BuildResponse(1, %d, 2) = %v, %v; want only object %d", gid, resp, err, gid)
	}
}

// TestFetchStatusCorruptCLOB: a CLOB at a node order outside the schema
// makes BuildResponse fail; /fetch reports that as the server's 500,
// not as a missing object.
func TestFetchStatusCorruptCLOB(t *testing.T) {
	ts, cat := newTestServer(t)
	id, err := cat.IngestXML("alice", xmlschema.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	bad := int64(len(cat.Schema.Ordered) + 1)
	if _, err := cat.DB.MustTable(catalog.TClobs).Insert(relstore.Row{
		relstore.Int(id), relstore.Int(bad), relstore.Int(1), relstore.Str("<x/>"),
	}); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, ts.URL+"/fetch?id="+itoa(id)); code != http.StatusInternalServerError {
		t.Errorf("/fetch of an object with a corrupt CLOB: %d %s, want 500", code, body)
	}
	if code, body := get(t, ts.URL+"/fetch?id="+itoa(id+1)); code != http.StatusNotFound {
		t.Errorf("/fetch of a missing object: %d %s, want 404", code, body)
	}
}
