package catalog

import (
	"bytes"
	"slices"
	"testing"

	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// privacyFixture ingests one object per owner; none published yet.
func privacyFixture(t *testing.T) (*Catalog, int64, int64) {
	t.Helper()
	c := newLEADCatalog(t, Options{})
	aliceObj, err := c.IngestXML("alice", fig3Variant(t, "1000"))
	if err != nil {
		t.Fatal(err)
	}
	bobObj, err := c.IngestXML("bob", fig3Variant(t, "1000"))
	if err != nil {
		t.Fatal(err)
	}
	return c, aliceObj, bobObj
}

func dxQuery(owner string) *Query {
	q := &Query{Owner: owner}
	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	return q
}

func TestUnpublishedObjectsArePrivate(t *testing.T) {
	c, aliceObj, bobObj := privacyFixture(t)

	// Each owner sees only their own unpublished object.
	ids, err := c.Evaluate(dxQuery("alice"))
	if err != nil || len(ids) != 1 || ids[0] != aliceObj {
		t.Fatalf("alice sees %v, %v", ids, err)
	}
	ids, _ = c.Evaluate(dxQuery("bob"))
	if len(ids) != 1 || ids[0] != bobObj {
		t.Fatalf("bob sees %v", ids)
	}
	// A third user sees nothing.
	ids, _ = c.Evaluate(dxQuery("carol"))
	if len(ids) != 0 {
		t.Fatalf("carol sees %v", ids)
	}
	// The superuser (empty owner) sees everything.
	ids, _ = c.Evaluate(dxQuery(""))
	if len(ids) != 2 {
		t.Fatalf("superuser sees %v", ids)
	}
}

func TestPublishingMakesObjectsVisible(t *testing.T) {
	c, aliceObj, bobObj := privacyFixture(t)
	if err := c.SetPublished(aliceObj, true); err != nil {
		t.Fatal(err)
	}
	ids, _ := c.Evaluate(dxQuery("carol"))
	if len(ids) != 1 || ids[0] != aliceObj {
		t.Fatalf("carol sees %v after publish", ids)
	}
	ids, _ = c.Evaluate(dxQuery("bob"))
	if len(ids) != 2 {
		t.Fatalf("bob sees %v (own + published)", ids)
	}
	// Unpublish reverses it.
	if err := c.SetPublished(aliceObj, false); err != nil {
		t.Fatal(err)
	}
	ids, _ = c.Evaluate(dxQuery("carol"))
	if len(ids) != 0 {
		t.Fatalf("carol sees %v after unpublish", ids)
	}
	// Objects listing reflects the flag.
	for _, o := range c.Objects() {
		if o.ID == aliceObj && o.Published {
			t.Error("published flag should be cleared")
		}
		_ = bobObj
	}
	// Missing object errors.
	if err := c.SetPublished(999, true); err == nil {
		t.Error("publishing a missing object should fail")
	}
}

// TestIndexOnlyVisibilityFollowsEpoch publishes and then unpublishes an
// object: a third user's structural and rank-only answers change at
// each next epoch, while views pinned before each flip keep answering
// from their own epoch's owner/published index entries.
func TestIndexOnlyVisibilityFollowsEpoch(t *testing.T) {
	c, aliceObj, _ := privacyFixture(t)
	ranked := &Query{Owner: "carol", Rank: &RankSpec{Terms: []string{"convective"}}}
	answers := func(v *view) (structural, rankOnly []int64) {
		t.Helper()
		ids, err := v.evaluateTraced(dxQuery("carol"), nil)
		if err != nil {
			t.Fatal(err)
		}
		scored, err := v.evaluateRanked(ranked, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scored {
			rankOnly = append(rankOnly, s.ID)
		}
		return ids, rankOnly
	}
	expect := func(label string, v *view, want []int64) {
		t.Helper()
		s, r := answers(v)
		if !slices.Equal(s, want) || !slices.Equal(r, want) {
			t.Fatalf("%s: carol sees structural %v, ranked %v; want %v", label, s, r, want)
		}
	}

	private := c.pinView()
	expect("before publish", private, nil)
	if err := c.SetPublished(aliceObj, true); err != nil {
		t.Fatal(err)
	}
	published := c.pinView()
	expect("after publish", published, []int64{aliceObj})
	expect("view pinned before publish", private, nil)
	if err := c.SetPublished(aliceObj, false); err != nil {
		t.Fatal(err)
	}
	expect("after unpublish", c.pinView(), nil)
	expect("view pinned before unpublish", published, []int64{aliceObj})
	expect("view pinned before publish, again", private, nil)
}

func TestPrivacySurvivesSnapshot(t *testing.T) {
	c, aliceObj, _ := privacyFixture(t)
	if err := c.SetPublished(aliceObj, true); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(xmlschema.MustLEAD(), Options{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := loaded.Evaluate(dxQuery("carol"))
	if len(ids) != 1 || ids[0] != aliceObj {
		t.Fatalf("carol sees %v after reload", ids)
	}
	ids, _ = loaded.Evaluate(dxQuery("bob"))
	if len(ids) != 2 {
		t.Fatalf("bob sees %v after reload", ids)
	}
}

func TestPrivacyAppliesThroughSearchAndContext(t *testing.T) {
	c, aliceObj, bobObj := privacyFixture(t)
	resp, err := c.Search(dxQuery("alice"))
	if err != nil || len(resp) != 1 || resp[0].ObjectID != aliceObj {
		t.Fatalf("search = %+v, %v", resp, err)
	}
	// Context-scoped queries filter too.
	coll, err := c.CreateCollection("shared", "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddToCollection(coll, aliceObj); err != nil {
		t.Fatal(err)
	}
	if err := c.AddToCollection(coll, bobObj); err != nil {
		t.Fatal(err)
	}
	ids, err := c.EvaluateInContext(coll, dxQuery("alice"))
	if err != nil || len(ids) != 1 || ids[0] != aliceObj {
		t.Fatalf("context query = %v, %v", ids, err)
	}
}
