package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func dxEqQuery(dx int64) *Query {
	q := &Query{}
	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(dx))
	return q
}

func TestCacheHitAndMutationInvalidation(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	if !c.CacheStats().Enabled {
		t.Fatal("caching should default on")
	}
	first := ingestFig3(t, c)

	q := dxEqQuery(1000)
	ids, err := c.Evaluate(q)
	if err != nil || len(ids) != 1 || ids[0] != first {
		t.Fatalf("cold evaluate = %v, %v", ids, err)
	}
	before := c.CacheStats()
	ids, err = c.Evaluate(q)
	if err != nil || len(ids) != 1 || ids[0] != first {
		t.Fatalf("warm evaluate = %v, %v", ids, err)
	}
	after := c.CacheStats()
	if after.Evaluate.Hits != before.Evaluate.Hits+1 {
		t.Fatalf("warm evaluate did not hit: %+v -> %+v", before.Evaluate, after.Evaluate)
	}

	// Ingest bumps the data generation: the cached result must not be
	// served for the new state.
	second, err := c.IngestXML("scientist", fig3Variant(t, "1000"))
	if err != nil {
		t.Fatal(err)
	}
	ids, err = c.Evaluate(q)
	if err != nil || len(ids) != 2 || ids[0] != first || ids[1] != second {
		t.Fatalf("evaluate after ingest = %v, %v", ids, err)
	}

	// Delete invalidates the same way.
	if ok, err := c.Delete(first); err != nil || !ok {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	ids, err = c.Evaluate(q)
	if err != nil || len(ids) != 1 || ids[0] != second {
		t.Fatalf("evaluate after delete = %v, %v", ids, err)
	}
	if st := c.CacheStats(); st.Evaluate.Stale == 0 {
		t.Fatalf("mutations should have dropped stale entries: %+v", st.Evaluate)
	}
}

func TestCacheInvalidationOnPublish(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id, err := c.IngestXML("alice", xmlschema.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}

	q := dxEqQuery(1000)
	q.Owner = "bob"
	for i := 0; i < 2; i++ { // twice, so the second answer comes from cache
		if ids, err := c.Evaluate(q); err != nil || len(ids) != 0 {
			t.Fatalf("unpublished object visible to bob: %v, %v", ids, err)
		}
	}
	if err := c.SetPublished(id, true); err != nil {
		t.Fatal(err)
	}
	if ids, err := c.Evaluate(q); err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("published object not visible to bob: %v, %v", ids, err)
	}
	if err := c.SetPublished(id, false); err != nil {
		t.Fatal(err)
	}
	if ids, err := c.Evaluate(q); err != nil || len(ids) != 0 {
		t.Fatalf("unpublish not reflected: %v, %v", ids, err)
	}
}

func TestRegistrationInvalidatesCachedEvaluations(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)

	q := dxEqQuery(1000)
	for i := 0; i < 2; i++ { // twice, so the second answer comes from cache
		if _, err := c.Evaluate(q); err != nil {
			t.Fatal(err)
		}
	}
	before := c.CacheStats()

	// Dynamic registration publishes a new version carrying the
	// definition — a new epoch — so the next evaluation resolves afresh
	// (a newly registered user-private definition may shadow the admin
	// one).
	if _, err := c.RegisterAttr("extra", "SRC", 0, ""); err != nil {
		t.Fatal(err)
	}
	if ids, err := c.Evaluate(q); err != nil || len(ids) != 1 {
		t.Fatalf("evaluate after registration = %v, %v", ids, err)
	}
	after := c.CacheStats()
	if after.DataGeneration <= before.DataGeneration {
		t.Fatalf("data generation did not advance: %d -> %d", before.DataGeneration, after.DataGeneration)
	}

	// Resolution errors must not be cached: an unknown criterion resolves
	// once its definition is registered.
	uq := &Query{}
	uq.Attr("later", "SRC")
	if _, err := c.Evaluate(uq); err == nil {
		t.Fatal("unknown attribute should fail to resolve")
	}
	if _, err := c.RegisterAttr("later", "SRC", 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate(uq); err != nil {
		t.Fatalf("resolve error was cached past registration: %v", err)
	}
}

// TestPrivateShadowingDefinitionReachesWarmQueries: resolution is not
// cached on its own, so the only thing standing between a registration
// and an already-warm owner-scoped query is the epoch stamp. A
// user-private definition shadowing the admin one must change that
// owner's next answer and nobody else's, exactly as on an uncached
// catalog driven in lockstep.
func TestPrivateShadowingDefinitionReachesWarmQueries(t *testing.T) {
	cached := newLEADCatalog(t, Options{})
	plain := newLEADCatalog(t, Options{CacheSize: -1})
	cats := []*Catalog{cached, plain}

	var id int64
	for _, c := range cats {
		var err error
		if id, err = c.IngestXML("alice", xmlschema.Figure3Document); err != nil {
			t.Fatal(err)
		}
		if err := c.SetPublished(id, true); err != nil {
			t.Fatal(err)
		}
	}
	// evaluate answers on both catalogs and requires them to agree.
	evaluate := func(owner string) ([]int64, error) {
		t.Helper()
		q := dxEqQuery(1000)
		q.Owner = owner
		got, gerr := cached.Evaluate(q)
		want, werr := plain.Evaluate(q)
		if (gerr == nil) != (werr == nil) || !slices.Equal(got, want) {
			t.Fatalf("owner %q: cached %v, %v != uncached %v, %v", owner, got, gerr, want, werr)
		}
		return got, gerr
	}
	for i := 0; i < 2; i++ { // twice, so the second answer comes from cache
		for _, owner := range []string{"alice", "bob"} {
			if ids, err := evaluate(owner); err != nil || !slices.Equal(ids, []int64{id}) {
				t.Fatalf("%s before registration = %v, %v", owner, ids, err)
			}
		}
	}
	if cached.CacheStats().Evaluate.Hits < 2 {
		t.Fatalf("owner-scoped queries never answered warm: %+v", cached.CacheStats().Evaluate)
	}

	// Alice's private grid/ARPS has no dx element yet: her query stops
	// resolving; Bob still resolves the admin definition.
	priv := make([]*core.AttrDef, len(cats))
	for i, c := range cats {
		var err error
		if priv[i], err = c.RegisterAttr("grid", "ARPS", 0, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := evaluate("alice"); !errors.Is(err, ErrUnknownDefinition) {
		t.Fatalf("alice after shadowing attribute: err = %v, want ErrUnknownDefinition", err)
	}
	if ids, err := evaluate("bob"); err != nil || !slices.Equal(ids, []int64{id}) {
		t.Fatalf("bob after alice's registration = %v, %v", ids, err)
	}

	// With a private dx too, her query resolves again — against her own
	// definition, under which nothing is stored.
	for i, c := range cats {
		if _, err := c.RegisterElem("dx", "ARPS", priv[i].ID, core.DTFloat, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	if ids, err := evaluate("alice"); err != nil || len(ids) != 0 {
		t.Fatalf("alice under her private definition = %v, %v", ids, err)
	}
	if ids, err := evaluate("bob"); err != nil || !slices.Equal(ids, []int64{id}) {
		t.Fatalf("bob after alice's element registration = %v, %v", ids, err)
	}
}

func TestResponseCacheServesCurrentDocuments(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)

	q := dxEqQuery(1000)
	resp1, err := c.Search(q)
	if err != nil || len(resp1) != 1 {
		t.Fatalf("cold search = %v, %v", resp1, err)
	}
	before := c.CacheStats()
	resp2, err := c.Search(q)
	if err != nil || len(resp2) != 1 || resp2[0].XML != resp1[0].XML {
		t.Fatalf("warm search differs: %v, %v", resp2, err)
	}
	after := c.CacheStats()
	if after.Response.Hits != before.Response.Hits+1 {
		t.Fatalf("warm search did not hit response cache: %+v -> %+v", before.Response, after.Response)
	}

	// A missing object is never cached as an empty document: once it is
	// ingested, the same ID fetches.
	missing := id + 100
	if _, err := c.FetchDocument(missing); err == nil {
		t.Fatal("fetch of missing object should fail")
	}
	for i := int64(0); i < 100; i++ {
		if _, err := c.IngestXML("scientist", fig3Variant(t, "2000")); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := c.FetchDocument(missing)
	if err != nil {
		t.Fatalf("fetch after ingest: %v", err)
	}
	if doc.ChildText("idinfo") == "" && len(doc.Children) == 0 {
		t.Fatal("fetched document is empty")
	}
}

func TestCacheOffMatchesCacheOn(t *testing.T) {
	cached := newLEADCatalog(t, Options{})
	plain := newLEADCatalog(t, Options{CacheSize: -1})
	if st := plain.CacheStats(); st.Enabled || st.Evaluate.Hits != 0 {
		t.Fatalf("negative CacheSize should disable caching; stats = %+v", st)
	}

	docs := []string{
		xmlschema.Figure3Document,
		fig3Variant(t, "2000"),
		fig3Variant(t, "1000"),
		fig3Variant(t, "500"),
	}
	for _, d := range docs {
		if _, err := cached.IngestXML("scientist", d); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.IngestXML("scientist", d); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*Query{dxEqQuery(1000), dxEqQuery(2000), dxEqQuery(500), dxEqQuery(9999)}
	tq := &Query{}
	tq.Attr("theme", "").AddElem("themekey", "", relstore.OpEq, relstore.Str("convective_precipitation_amount"))
	queries = append(queries, tq)
	// A compound query sharing the dx=1000 criterion exercises the probe
	// layer: its grid node reuses the probe memoized by dxEqQuery(1000).
	cq := dxEqQuery(1000)
	cq.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("CF NetCDF"))
	queries = append(queries, cq)
	for round := 0; round < 3; round++ { // repeat so later rounds are warm
		if round == 2 {
			// A lockstep mutation bumps the data generation: evaluate
			// entries go stale while resolutions stay warm, and both
			// catalogs must still agree.
			for _, cat := range []*Catalog{cached, plain} {
				if _, err := cat.IngestXML("scientist", fig3Variant(t, "7777")); err != nil {
					t.Fatal(err)
				}
			}
		}
		for qi, q := range queries {
			want, err1 := plain.Evaluate(q)
			got, err2 := cached.Evaluate(q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("round %d query %d: err %v vs %v", round, qi, err1, err2)
			}
			if len(want) != len(got) {
				t.Fatalf("round %d query %d: ids %v vs %v", round, qi, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("round %d query %d: ids %v vs %v", round, qi, got, want)
				}
			}
			wr, _ := plain.Search(q)
			gr, _ := cached.Search(q)
			if len(wr) != len(gr) {
				t.Fatalf("round %d query %d: responses %d vs %d", round, qi, len(gr), len(wr))
			}
			for i := range wr {
				if wr[i].XML != gr[i].XML {
					t.Fatalf("round %d query %d: response %d differs", round, qi, i)
				}
			}
		}
	}
	// The pipeline memoizes criterion probes in the postings layer.
	if st := cached.CacheStats(); st.Evaluate.Hits == 0 || st.Postings.Hits == 0 || st.Response.Hits == 0 {
		t.Fatalf("warm rounds should have hit all layers: %+v", st)
	}
}

func TestCacheEvictionUnderSmallCapacity(t *testing.T) {
	c := newLEADCatalog(t, Options{CacheSize: 4})
	ingestFig3(t, c)
	for dx := int64(1); dx <= 40; dx++ {
		if _, err := c.Evaluate(dxEqQuery(dx * 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CacheStats()
	if st.Evaluate.Evictions == 0 {
		t.Fatalf("40 distinct queries through capacity 4 should evict: %+v", st.Evaluate)
	}
	if got := st.Evaluate.Entries; got > 4 {
		t.Fatalf("entries %d exceed capacity", got)
	}
}

func TestQueryCacheKeyDistinguishesQueries(t *testing.T) {
	mk := func(f func(q *Query)) string {
		q := &Query{}
		f(q)
		return queryCacheKey(q)
	}
	keys := []string{
		mk(func(q *Query) { q.Attr("grid", "ARPS") }),
		mk(func(q *Query) { q.Owner = "alice"; q.Attr("grid", "ARPS") }),
		mk(func(q *Query) { q.Attr("grid", "") }),
		mk(func(q *Query) { q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(5)) }),
		mk(func(q *Query) { q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Float(5)) }),
		mk(func(q *Query) { q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Str("5")) }),
		mk(func(q *Query) { q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpGe, relstore.Int(5)) }),
		mk(func(q *Query) {
			a := q.Attr("grid", "ARPS")
			a.AddSub(&AttrCriteria{Name: "grid-stretching", Source: "ARPS"})
		}),
		// Sub-criterion vs a sibling element with the same name must not
		// collide, and length prefixes keep adjacent fields apart.
		mk(func(q *Query) { q.Attr("ab", "c") }),
		mk(func(q *Query) { q.Attr("a", "bc") }),
	}
	seen := map[string]int{}
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			t.Fatalf("queries %d and %d share key %q", j, i, k)
		}
		seen[k] = i
	}
	// Same query, same key.
	if a, b := mk(func(q *Query) { q.Attr("grid", "ARPS") }), keys[0]; a != b {
		t.Fatalf("identical queries key differently: %q vs %q", a, b)
	}
}

// TestCachedDocumentsStayWellFormed guards the response cache against
// serving a partially built document: every cached fetch must still
// parse and match the DOM of the ingested original.
func TestCachedDocumentsStayWellFormed(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)
	want, _ := xmldoc.ParseString(xmlschema.Figure3Document)
	for i := 0; i < 3; i++ {
		resp, err := c.BuildResponse([]int64{id})
		if err != nil || len(resp) != 1 {
			t.Fatalf("build %d: %v, %v", i, resp, err)
		}
		got, err := xmldoc.ParseString(resp[0].XML)
		if err != nil {
			t.Fatalf("build %d not well-formed: %v", i, err)
		}
		if !xmldoc.Equal(want, got) {
			t.Fatalf("build %d differs: %s", i, xmldoc.Diff(want, got))
		}
		if !strings.Contains(resp[0].XML, "<LEADresource>") {
			t.Fatalf("build %d lost root tag", i)
		}
	}
}

// TestResponseJSONFormOncePerContent: a built document's JSON string
// literal is encoding/json's bytes, is computed on first wire use (not
// by BuildResponse), and lives with the response-cache entry, so a
// later build at the same epoch, a ranked pairing and a routed copy all
// reuse it. A write to another object keeps the entry and its literal;
// an AddAttribute to the object itself starts from a fresh entry.
func TestResponseJSONFormOncePerContent(t *testing.T) {
	wantJSON := func(s string) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(b.String(), "\n")
	}
	c := newLEADCatalog(t, Options{})
	id, err := c.IngestXML("scientist", strings.Replace(xmlschema.Figure3Document,
		"<resourceID>", "<resourceID>\"q\" \\ &amp; &lt;&gt; \u2028\t", 1))
	if err != nil {
		t.Fatal(err)
	}
	build := func() Response {
		t.Helper()
		resp, err := c.BuildResponse([]int64{id})
		if err != nil || len(resp) != 1 {
			t.Fatalf("BuildResponse = %v, %v", resp, err)
		}
		return resp[0]
	}
	first := build()
	if first.doc.json.Load() != nil {
		t.Fatal("BuildResponse escaped the document; the JSON form is for the wire to fill")
	}
	want := wantJSON(first.XML)
	if got := string(first.AppendJSONString([]byte("x"))); got != "x"+want {
		t.Fatalf("AppendJSONString = %s, want x%s", got, want)
	}
	if first.doc.json.Load() == nil {
		t.Fatal("the JSON form was not kept with the cache entry")
	}
	again := build()
	if again.doc != first.doc || string(again.AppendJSONString(nil)) != want {
		t.Fatal("a second build at the same epoch did not reuse the cached JSON form")
	}
	if r := again.Ranked(2.5); r.doc != first.doc || string(r.AppendJSONString(nil)) != want || r.Score != 2.5 {
		t.Fatalf("Ranked lost the memo: %+v", r)
	}
	edited := first
	edited.XML = "<x>\u2029</x>"
	if got := string(edited.AppendJSONString(nil)); got != wantJSON(edited.XML) {
		t.Fatalf("a Response whose XML was replaced appended %s", got)
	}
	if got := string((Response{XML: "a\"b"}).AppendJSONString(nil)); got != `"a\"b"` {
		t.Fatalf("a hand-built Response appended %s", got)
	}

	ingestFig3(t, c) // a new epoch, but this object's rows are unchanged
	before := c.CacheStats().Response
	if next := build(); next.doc != first.doc || string(next.AppendJSONString(nil)) != want {
		t.Fatal("an unrelated ingest dropped the entry or its JSON form")
	}
	if after := c.CacheStats().Response; after.Hits != before.Hits+1 || after.Stale != before.Stale {
		t.Fatalf("an unrelated ingest: response stats %+v -> %+v, want one hit and no stale drop", before, after)
	}

	if err := c.AddAttribute(id, "scientist", themeFrag(t, "added")); err != nil {
		t.Fatal(err)
	}
	before = c.CacheStats().Response
	next := build()
	if next.doc == first.doc || next.doc.json.Load() != nil || next.XML == first.XML {
		t.Fatal("a build after AddAttribute to the object reused its old entry")
	}
	if got := string(next.AppendJSONString(nil)); got != wantJSON(next.XML) || !strings.Contains(got, "added") {
		t.Fatalf("after AddAttribute: AppendJSONString = %s", got)
	}
	if after := c.CacheStats().Response; after.Hits != before.Hits || after.Stale != before.Stale+1 {
		t.Fatalf("AddAttribute to the object: response stats %+v -> %+v, want one stale drop and no hit", before, after)
	}

	off := newLEADCatalog(t, Options{CacheSize: -1})
	offID := ingestFig3(t, off)
	resp, err := off.BuildResponse([]int64{offID})
	if err != nil || len(resp) != 1 {
		t.Fatalf("BuildResponse with caches off = %v, %v", resp, err)
	}
	if got := string(resp[0].AppendJSONString(nil)); got != wantJSON(resp[0].XML) {
		t.Fatalf("caches off: AppendJSONString = %s", got)
	}
}
