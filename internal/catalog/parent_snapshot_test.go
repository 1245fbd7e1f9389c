package catalog_test

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// parentSnapshot is an HCSNAP03 snapshot written by commit 7d69607, the
// last commit whose relstore.Value carried a BLOB field. It was made by
// running this file with -write-parent-fixture on a checkout of that
// commit:
//
//	go test ./internal/catalog -run TestParentSnapshotLoads -write-parent-fixture
//
// which builds the catalog of buildParentFixture (16 W1-shaped
// documents, workload seed 1) and saves it. Regenerating it on a later
// commit would no longer test what an older build wrote.
const parentSnapshot = "testdata/parent-hcsnap03.snap"

var writeParentFixture = flag.Bool("write-parent-fixture", false, "rewrite "+parentSnapshot+" from this build")

// parentFixtureGen generates the fixture's documents: W1's corpus shape
// (3×3 themes, 4 namelist groups of 8 parameters nested 2 deep, 50
// values per parameter) at seed 1, 16 documents.
func parentFixtureGen() *workload.Generator {
	return workload.New(workload.Config{
		Seed:               1,
		Docs:               16,
		ThemesPerDoc:       3,
		KeysPerTheme:       3,
		DynamicAttrsPerDoc: 4,
		ParamsPerAttr:      8,
		NestDepth:          2,
		ValueCardinality:   50,
	})
}

// Who owns and who published document i (object i+1) of the fixture.
func parentFixtureOwner(i int) string   { return []string{"alice", "bob"}[i%2] }
func parentFixturePublished(i int) bool { return i%3 != 2 }
func parentFixtureCollections() []catalog.CollectionInfo {
	return []catalog.CollectionInfo{
		{ID: 1, Name: "w1", Owner: "alice"},
		{ID: 2, Name: "w1-nested", Owner: "alice", ParentID: 1},
	}
}

// buildParentFixture builds the fixture's catalog: the generator's
// dynamic definitions, 16 documents by two owners, a mix of published
// and unpublished objects, and a collection with a parent holding some
// of them. The documents carry float parameters (non-NULL nval) and
// theme keywords (NULL nval).
func buildParentFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	g := parentFixtureGen()
	c, err := catalog.Open(g.Schema, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterDefinitions(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Config().Docs; i++ {
		id, err := c.Ingest(parentFixtureOwner(i), g.Document(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetPublished(id, parentFixturePublished(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, coll := range parentFixtureCollections() {
		id, err := c.CreateCollection(coll.Name, coll.Owner, coll.ParentID)
		if err != nil || id != coll.ID {
			t.Fatalf("collection %q: id %d, %v", coll.Name, id, err)
		}
	}
	for obj := int64(1); obj <= 4; obj++ {
		if err := c.AddToCollection(1+obj%2, obj); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestParentSnapshotLoads loads a snapshot the parent commit wrote and
// requires it to answer as the catalog it was saved from: every
// object's §5 response is its regenerated document, a Figure-4 range
// query and a nested query match the DOM judge, and the published flags
// and the collection hierarchy are the ones the fixture set.
func TestParentSnapshotLoads(t *testing.T) {
	if *writeParentFixture {
		var buf bytes.Buffer
		if err := buildParentFixture(t).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parentSnapshot, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("HCSNAP03")) {
		t.Fatalf("fixture magic %q, want HCSNAP03", raw[:min(8, len(raw))])
	}
	c, err := catalog.Load(xmlschema.MustLEAD(), catalog.Options{}, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	g := parentFixtureGen()
	docs := g.Corpus()
	ids := make([]int64, len(docs))
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	resp, err := c.BuildResponse(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(docs) {
		t.Fatalf("%d responses for %d objects", len(resp), len(docs))
	}
	for i, r := range resp {
		if want := docs[i].String(); r.ObjectID != ids[i] || r.XML != want {
			t.Fatalf("object %d rebuilt as\n%s\nwant\n%s", r.ObjectID, r.XML, want)
		}
	}

	// The nested query takes the first value bucket any document holds.
	nested := g.NestedQuery(1, 0, 2)
	for k := 1; k < 50 && len(domIDs(g.Schema, docs, nested)) == 0; k++ {
		nested = g.NestedQuery(1, k, 2)
	}
	for _, q := range []*catalog.Query{g.RangeQuery(0, 0, 0.5), nested} {
		got, err := c.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		want := domIDs(g.Schema, docs, q)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("query %+v: got %v, DOM judge %v", q.Attrs[0], got, want)
		}
	}

	objs := c.Objects()
	if len(objs) != len(docs) {
		t.Fatalf("Objects: %d, want %d", len(objs), len(docs))
	}
	for i, o := range objs {
		if o.ID != ids[i] || o.Owner != parentFixtureOwner(i) || o.Published != parentFixturePublished(i) || o.Created == "" {
			t.Errorf("object %d: %+v, want owner %s published %v", ids[i], o, parentFixtureOwner(i), parentFixturePublished(i))
		}
	}
	if got, want := c.Collections(), parentFixtureCollections(); !slices.Equal(got, want) {
		t.Errorf("Collections = %+v, want %+v", got, want)
	}
}
