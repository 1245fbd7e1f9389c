package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
)

// rankDocXML builds a LEAD document whose themekey repeats "storm" i+1
// times padded with filler keys, so BM25 term frequency — and therefore
// the expected ranking — is controlled per document.
func rankDocXML(i, stormKeys, fillerKeys int) string {
	var keys strings.Builder
	for k := 0; k < stormKeys; k++ {
		keys.WriteString("    <themekey>storm surge</themekey>\n")
	}
	for k := 0; k < fillerKeys; k++ {
		fmt.Fprintf(&keys, "    <themekey>filler_%d_%d</themekey>\n", i, k)
	}
	return fmt.Sprintf(`<LEADresource>
  <resourceID>lead:rank/%04d</resourceID>
  <data><idinfo><keywords><theme>
    <themekt>CF</themekt>
%s  </theme></keywords></idinfo></data>
</LEADresource>`, i, keys.String())
}

type rankedResult struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
	XML   string  `json:"xml"`
}

type rankedPage struct {
	Total   int            `json:"total"`
	Results []rankedResult `json:"results"`
}

// TestServiceRankedSearch drives POST /search with a rank clause on the
// single-catalog service: controlled term frequencies must come back in
// frequency order with scores, /query must refuse the rank clause, and
// offset/limit paging must tile the ranking exactly.
func TestServiceRankedSearch(t *testing.T) {
	ts, cat := newTestServer(t)
	const docs = 6
	for i := 0; i < docs; i++ {
		// Document i carries i+1 "storm surge" keys and enough filler to
		// keep every document the same length, so tf alone orders them:
		// doc 5 (6 repeats) first, doc 0 last.
		if _, err := cat.IngestXML(fmt.Sprintf("u%d", i), rankDocXML(i, i+1, docs-i)); err != nil {
			t.Fatal(err)
		}
	}

	body := `{"rank": {"terms": ["storm"], "k": 10}}`
	code, out := post(t, ts.URL+"/search", "application/json", body)
	if code != 200 {
		t.Fatalf("/search ranked: status %d: %s", code, out)
	}
	var page rankedPage
	if err := json.Unmarshal([]byte(out), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != docs || len(page.Results) != docs {
		t.Fatalf("ranked search: total=%d results=%d, want %d", page.Total, len(page.Results), docs)
	}
	for i, r := range page.Results {
		if want := int64(docs - i); r.ID != want {
			t.Fatalf("rank %d: object %d, want %d (tf order)", i, r.ID, want)
		}
		if i > 0 && r.Score >= page.Results[i-1].Score {
			t.Fatalf("rank %d: score %v not below %v", i, r.Score, page.Results[i-1].Score)
		}
		if !strings.Contains(r.XML, "<LEADresource>") {
			t.Fatalf("rank %d: no document XML in result", i)
		}
	}

	// Ranked composed with a structural criterion: only documents whose
	// themekt matches are admitted.
	code, out = post(t, ts.URL+"/search", "application/json",
		`{"attrs": [{"name": "theme", "elems": [{"name": "themekt", "op": "=", "value": "CF"}]}],
		  "rank": {"terms": ["storm"], "k": 3}}`)
	if code != 200 {
		t.Fatalf("/search ranked+structural: status %d: %s", code, out)
	}
	page = rankedPage{}
	if err := json.Unmarshal([]byte(out), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 3 || page.Results[0].ID != docs {
		t.Fatalf("ranked+structural: total=%d first=%d, want 3/%d", page.Total, page.Results[0].ID, docs)
	}

	// Paging: tiles of the ranking concatenate to the full order with no
	// drop or duplicate at the boundaries.
	var tiled []int64
	for off := 0; off < docs; off += 2 {
		code, out = post(t, fmt.Sprintf("%s/search?offset=%d&limit=2", ts.URL, off), "application/json", body)
		if code != 200 {
			t.Fatalf("page offset=%d: status %d", off, code)
		}
		var p rankedPage
		if err := json.Unmarshal([]byte(out), &p); err != nil {
			t.Fatal(err)
		}
		if p.Total != docs {
			t.Fatalf("page offset=%d: total=%d, want %d", off, p.Total, docs)
		}
		for _, r := range p.Results {
			tiled = append(tiled, r.ID)
		}
	}
	if len(tiled) != docs {
		t.Fatalf("paging tiles produced %d results, want %d", len(tiled), docs)
	}
	for i, id := range tiled {
		if want := int64(docs - i); id != want {
			t.Fatalf("tiled rank %d: object %d, want %d", i, id, want)
		}
	}
	// Past-the-end offset returns an empty page with the true total.
	code, out = post(t, ts.URL+"/search?offset=100&limit=2", "application/json", body)
	var p rankedPage
	if err := json.Unmarshal([]byte(out), &p); err != nil {
		t.Fatal(err)
	}
	if code != 200 || p.Total != docs || len(p.Results) != 0 {
		t.Fatalf("past-end page: status %d total=%d results=%d", code, p.Total, len(p.Results))
	}

	// /query refuses a rank clause; ranked /search refuses ?collection.
	if code, _ = post(t, ts.URL+"/query", "application/json", body); code != 400 {
		t.Fatalf("/query with rank: status %d, want 400", code)
	}
	if code, _ = post(t, ts.URL+"/search?collection=1", "application/json", body); code != 400 {
		t.Fatalf("ranked /search?collection: status %d, want 400", code)
	}
}

// TestShardedServiceRankedSearch drives POST /search with a rank clause
// on the sharded service: fan-out ranking with global statistics over a
// 2-shard cluster must reproduce the controlled tf order end to end.
func TestShardedServiceRankedSearch(t *testing.T) {
	cl := openShardCluster(t, 2, catalog.Options{})
	ts := httptest.NewServer(NewSharded(cl).Handler())
	defer ts.Close()

	const docs = 6
	ids := map[int64]int{}
	for i := 0; i < docs; i++ {
		// Spread owners so the documents land on both shards.
		gid, err := cl.IngestXML(fmt.Sprintf("tenant-%d", i), rankDocXML(i, i+1, docs-i))
		if err != nil {
			t.Fatal(err)
		}
		ids[gid] = i
	}
	for i := 0; i < docs; i++ {
		gid := int64(0)
		for g, d := range ids {
			if d == i {
				gid = g
			}
		}
		if err := cl.SetPublished(gid, true); err != nil {
			t.Fatal(err)
		}
	}

	body := `{"rank": {"terms": ["storm"], "k": 10}}`
	code, out := post(t, ts.URL+"/search?fanout=1", "application/json", body)
	if code != 200 {
		t.Fatalf("sharded ranked /search: status %d: %s", code, out)
	}
	var page rankedPage
	if err := json.Unmarshal([]byte(out), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != docs {
		t.Fatalf("sharded ranked search: total=%d, want %d", page.Total, docs)
	}
	for i, r := range page.Results {
		if want := docs - 1 - i; ids[r.ID] != want {
			t.Fatalf("sharded rank %d: document %d, want %d (tf order under global stats)", i, ids[r.ID], want)
		}
		if i > 0 && r.Score >= page.Results[i-1].Score {
			t.Fatalf("sharded rank %d: score %v not below %v", i, r.Score, page.Results[i-1].Score)
		}
	}

	// /query refuses a rank clause on the sharded surface too.
	if code, _ := post(t, ts.URL+"/query", "application/json", body); code != 400 {
		t.Fatalf("sharded /query with rank: status %d, want 400", code)
	}
}
