// Ranked-retrieval suite: the rank operator's guard rails, the
// epoch-stamped index and its advance by snapshot diff (held against a
// scratch build under every kind of mutation), and the content-and-structure
// composition invariants checked against the DOM oracle — in the
// external test package for the same baseline-import reason as the
// equivalence suite.
package catalog_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// openRanked builds a catalog over the workload corpus for the ranked
// tests.
func openRanked(t *testing.T, g *workload.Generator, opts catalog.Options, docs []*xmldoc.Node) *catalog.Catalog {
	t.Helper()
	c, err := catalog.Open(g.Schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterDefinitions(c); err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if _, err := c.Ingest("lab", d); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}
	return c
}

func TestRankedGuards(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 10
	g := workload.New(cfg)
	c := openRanked(t, g, catalog.Options{}, g.Corpus())

	// A ranked query refuses the plain evaluate entry points: scores
	// would be silently dropped.
	rq := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"pressure"}}}
	if _, err := c.Evaluate(rq); err == nil {
		t.Fatal("Evaluate accepted a ranked query")
	}
	// And the ranked entry point refuses a query with no terms.
	if _, err := c.EvaluateRanked(&catalog.Query{}); err == nil {
		t.Fatal("EvaluateRanked accepted a query with no rank spec")
	}
	if _, err := c.EvaluateRanked(&catalog.Query{Rank: &catalog.RankSpec{}}); err == nil {
		t.Fatal("EvaluateRanked accepted an empty term list")
	}
}

// ranks reports whether id is among the scored results.
func ranks(scored []catalog.ScoredID, id int64) bool {
	for _, s := range scored {
		if s.ID == id {
			return true
		}
	}
	return false
}

// TestRankedEpochAdvance proves the text index follows the catalog by
// snapshot diff: it is built from scratch once, an unchanged catalog
// neither builds nor advances, and after one ingest the next ranked
// query advances it — no second build — and ranks the new document.
func TestRankedEpochAdvance(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 20
	g := workload.New(cfg)
	reg := obs.NewRegistry()
	c := openRanked(t, g, catalog.Options{Metrics: reg}, g.Corpus())
	counters := func() (builds, advances, rows float64) {
		s := reg.Snapshot()
		return s["textindex_builds_total"], s["textindex_advances_total"], s["textindex_delta_rows_total"]
	}

	// "forecast" is in every document's title, so the unbounded ranking
	// is the whole corpus.
	q := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"forecast", "radar"}, K: 100}}
	first, err := c.EvaluateRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvaluateRanked(q); err != nil {
		t.Fatal(err)
	}
	if builds, advances, _ := counters(); builds != 1 || advances != 0 {
		t.Fatalf("unchanged catalog: builds=%v advances=%v, want 1 and 0", builds, advances)
	}

	newID, err := c.Ingest("lab", g.Document(len(g.Corpus())))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.EvaluateRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvaluateRanked(q); err != nil {
		t.Fatal(err)
	}
	builds, advances, rows := counters()
	if builds != 1 || advances != 1 {
		t.Fatalf("one ingest: builds=%v advances=%v, want 1 and 1", builds, advances)
	}
	// The diff read the new document's rows, not the corpus.
	if perDoc := float64(c.DB.MustTable(catalog.TElemData).Len()) / float64(len(g.Corpus())+1); rows == 0 || rows > 2*perDoc {
		t.Fatalf("advance visited %v rows for one document of about %.0f", rows, perDoc)
	}
	if len(second) != len(first)+1 || !ranks(second, newID) {
		t.Fatalf("ranking went %d -> %d results, new document %d ranked: %v", len(first), len(second), newID, ranks(second, newID))
	}
}

// TestRankedSnapshotIsolation: a reader pinned behind the published
// index is served its own epoch's index. A view pinned before an ingest
// never ranks the new document, and a view pinned before a delete still
// ranks the deleted one — each with scores bit-identical to what a
// current reader got at that epoch — without a second build and without
// dragging the published index backwards.
func TestRankedSnapshotIsolation(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 30
	g := workload.New(cfg)
	reg := obs.NewRegistry()
	c := openRanked(t, g, catalog.Options{Metrics: reg}, g.Corpus())
	q := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"forecast", "pressure"}, K: 100}}

	beforeIngest := c.PinRanked()
	atFirst, err := c.EvaluateRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	newID, err := c.Ingest("lab", g.Document(cfg.Docs))
	if err != nil {
		t.Fatal(err)
	}
	beforeDelete := c.PinRanked()
	atSecond, err := c.EvaluateRanked(q) // publishes the index at the ingest's epoch
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Delete(newID); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	atThird, err := c.EvaluateRanked(q) // and now at the delete's
	if err != nil {
		t.Fatal(err)
	}
	if !ranks(atSecond, newID) || ranks(atThird, newID) {
		t.Fatalf("current readers: ranked after ingest %v, after delete %v", ranks(atSecond, newID), ranks(atThird, newID))
	}

	for _, pinned := range []struct {
		name string
		eval func(*catalog.Query) ([]catalog.ScoredID, error)
		want []catalog.ScoredID
	}{
		{"before ingest", beforeIngest, atFirst},
		{"before delete", beforeDelete, atSecond},
	} {
		got, err := pinned.eval(q)
		if err != nil {
			t.Fatalf("%s: %v", pinned.name, err)
		}
		if !reflect.DeepEqual(got, pinned.want) {
			t.Fatalf("view pinned %s ranks\n %v\nits epoch's reader got\n %v", pinned.name, got, pinned.want)
		}
	}
	if builds := reg.Snapshot()["textindex_builds_total"]; builds != 1 {
		t.Fatalf("pinned readers cost a full build: builds=%v", builds)
	}
	// The published index still serves the newest epoch as is.
	advances := reg.Snapshot()["textindex_advances_total"]
	if again, err := c.EvaluateRanked(q); err != nil || !reflect.DeepEqual(again, atThird) {
		t.Fatalf("current reader after the pinned ones: %v, %v", again, err)
	}
	if now := reg.Snapshot()["textindex_advances_total"]; now != advances {
		t.Fatalf("a pinned reader regressed the published index: advances %v -> %v", advances, now)
	}
}

// requireIndexCoherent asserts that the index the ranked path serves at
// the catalog's current version equals one built from scratch over the
// same snapshot: dimensions, statistics, and bit-identical top-k for
// each sampled term set.
func requireIndexCoherent(t *testing.T, what string, c *catalog.Catalog, vocab []string) {
	t.Helper()
	served, scratch, err := c.TextIndexVsScratch()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if served.Docs() != scratch.Docs() || served.Terms() != scratch.Terms() {
		t.Fatalf("%s: served index has %d docs / %d terms, scratch %d / %d",
			what, served.Docs(), served.Terms(), scratch.Docs(), scratch.Terms())
	}
	if got, want := served.StatsFor(vocab), scratch.StatsFor(vocab); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: StatsFor = %+v, scratch %+v", what, got, want)
	}
	for i := 0; i+1 < len(vocab); i += 2 {
		terms := vocab[i : i+2]
		if got, want := served.TopK(terms, 25, nil, nil), scratch.TopK(terms, 25, nil, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TopK(%v) = %v, scratch %v", what, terms, got, want)
		}
	}
}

// TestRankedIndexCoherenceOracle drives a durable primary and a
// WAL-tailing follower through a seeded random sequence of every
// mutation that reaches elem_data or bumps the epoch beside it —
// Ingest (one, a few, and enough between two checks to abandon the diff),
// Delete, publish/unpublish, AddAttribute (part of a document changes),
// dynamic definitions, close + recover, follower ApplyWAL and
// re-bootstrap after a checkpoint gap — and after each step holds the
// served index on both sides against a scratch build. Checks are
// skipped at random so diffs also span several commits.
func TestRankedIndexCoherenceOracle(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 24
	g := workload.New(cfg)
	vocab := append(g.SearchVocabulary(), "coherence", "oracle", "absent")
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		mem := faultio.NewMemFS()
		preg, freg := obs.NewRegistry(), obs.NewRegistry()
		dopts := catalog.DurabilityOptions{FS: mem, WALPath: "coherence.wal", CheckpointEvery: 9}
		open := func() *catalog.Catalog {
			c, err := catalog.OpenDurable(g.Schema, catalog.Options{Metrics: preg}, dopts)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		primary := open()
		if err := g.RegisterDefinitions(primary); err != nil {
			t.Fatal(err)
		}
		follower, err := catalog.OpenFollower(g.Schema, catalog.Options{Metrics: freg})
		if err != nil {
			t.Fatal(err)
		}
		// tail ships the primary's new records; a checkpoint may have
		// truncated them, and then the follower is bootstrapped afresh.
		tail := func() {
			recs, _, gap, err := primary.WALSince(follower.AppliedSeq())
			if err != nil {
				t.Fatal(err)
			}
			if gap {
				var snap bytes.Buffer
				if _, err := primary.ReplicationSnapshot(&snap); err != nil {
					t.Fatal(err)
				}
				if follower, err = catalog.LoadFollower(g.Schema, catalog.Options{Metrics: freg}, &snap); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err := follower.ApplyWAL(recs); err != nil {
				t.Fatal(err)
			}
		}

		var live []int64
		nextDoc := 0
		pick := func() (int, int64) { i := rng.Intn(len(live)); return i, live[i] }
		for step := 0; step < 100; step++ {
			what := ""
			switch op := rng.Intn(20); {
			case len(live) < 4 || op < 6:
				what = "ingest"
				id, err := primary.Ingest("lab", g.Document(nextDoc))
				if err != nil {
					t.Fatal(err)
				}
				nextDoc++
				live = append(live, id)
			case op < 9 && len(live) < 48:
				n := 2 + rng.Intn(4)
				if op == 8 {
					n = len(live)/2 + 2 // a third of elem_data's pages: past the diff's budget
				}
				what = fmt.Sprintf("%d ingests", n)
				for i := 0; i < n; i++ {
					id, err := primary.Ingest("lab", g.Document(nextDoc))
					if err != nil {
						t.Fatal(err)
					}
					nextDoc++
					live = append(live, id)
				}
			case op < 13:
				i, id := pick()
				what = fmt.Sprintf("delete %d", id)
				if ok, err := primary.Delete(id); err != nil || !ok {
					t.Fatalf("%s: %v %v", what, ok, err)
				}
				live = append(live[:i], live[i+1:]...)
			case op < 15:
				_, id := pick()
				what = fmt.Sprintf("publish %d", id)
				if err := primary.SetPublished(id, rng.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
			case op < 17:
				_, id := pick()
				what = fmt.Sprintf("add attribute to %d", id)
				frag, err := xmldoc.ParseString(fmt.Sprintf(
					"<theme><themekt>coherence oracle</themekt><themekey>%s step%d</themekey></theme>", vocab[rng.Intn(len(vocab))], step))
				if err != nil {
					t.Fatal(err)
				}
				if err := primary.AddAttribute(id, "lab", frag); err != nil {
					t.Fatal(err)
				}
			case op < 18:
				what = "dynamic define"
				def, err := primary.RegisterAttr(fmt.Sprintf("coherence%d", step), "ORACLE", 0, "")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := primary.RegisterElem("note", "ORACLE", def.ID, core.DTString, ""); err != nil {
					t.Fatal(err)
				}
			default:
				what = "close + recover"
				if err := primary.Close(); err != nil {
					t.Fatal(err)
				}
				primary = open()
			}
			what = fmt.Sprintf("seed %d step %d (%s)", seed, step, what)
			if rng.Intn(10) < 7 {
				requireIndexCoherent(t, what+": primary", primary, vocab)
			}
			tail()
			if rng.Intn(10) < 7 {
				requireIndexCoherent(t, what+": follower", follower, vocab)
			}
		}
		requireIndexCoherent(t, fmt.Sprintf("seed %d end: primary", seed), primary, vocab)
		requireIndexCoherent(t, fmt.Sprintf("seed %d end: follower", seed), follower, vocab)
		// Both sides must have taken the incremental path more often than
		// the full build that recoveries, bootstraps and the large
		// batches force.
		for name, reg := range map[string]*obs.Registry{"primary": preg, "follower": freg} {
			s := reg.Snapshot()
			if b, a := s["textindex_builds_total"], s["textindex_advances_total"]; a <= b || s["textindex_delta_rows_total"] == 0 {
				t.Fatalf("seed %d %s: %v builds, %v advances, %v delta rows", seed, name, b, a, s["textindex_delta_rows_total"])
			}
		}
		if err := primary.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRankedComposition checks the content-and-structure invariants:
// ranked+structural results are exactly the structural DOM-oracle
// matches that score, ordered by (score desc, ID asc).
func TestRankedComposition(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 80
	g := workload.New(cfg)
	corpus := g.Corpus()
	c := openRanked(t, g, catalog.Options{}, corpus)

	oracle := func(q *catalog.Query) map[int64]bool {
		member := map[int64]bool{}
		for i, d := range corpus {
			if baseline.DocMatches(g.Schema, d, q) {
				member[int64(i+1)] = true
			}
		}
		return member
	}

	for i := 0; i < 40; i++ {
		q := g.RankedStructuralQuery(i)
		q.Rank.K = len(corpus) + 1 // unbounded: every scoring admitted doc
		structural := *q
		structural.Rank = nil
		member := oracle(&structural)

		got, err := c.EvaluateRanked(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for j, s := range got {
			if !member[s.ID] {
				t.Fatalf("query %d: ranked result %d not admitted by the structural oracle", i, s.ID)
			}
			if s.Score <= 0 {
				t.Fatalf("query %d: non-positive score %v", i, s.Score)
			}
			if j > 0 {
				prev := got[j-1]
				if s.Score > prev.Score || (s.Score == prev.Score && s.ID <= prev.ID) {
					t.Fatalf("query %d: ranking out of order at %d: %+v after %+v", i, j, s, prev)
				}
			}
		}
	}
}

// TestRankedTopKTruncation: the k bound returns exactly the first k of
// the unbounded ranking.
func TestRankedTopKTruncation(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 60
	g := workload.New(cfg)
	c := openRanked(t, g, catalog.Options{}, g.Corpus())

	full := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"precipitation", "pressure"}, K: 1000}}
	all, err := c.EvaluateRanked(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 10 {
		t.Fatalf("broad ranking only matched %d docs — corpus drifted", len(all))
	}
	for _, k := range []int{1, 3, 10} {
		bounded := &catalog.Query{Rank: &catalog.RankSpec{Terms: full.Rank.Terms, K: k}}
		got, err := c.EvaluateRanked(bounded)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d returned %d results", k, len(got))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("k=%d result %d: %+v != unbounded prefix %+v", k, i, got[i], all[i])
			}
		}
	}
}

// TestRankedConcurrentWithWriter runs ranked readers against a
// concurrent ingest writer: every rebuild of the epoch-stamped index
// races real queries (run under -race by the Makefile search target).
func TestRankedConcurrentWithWriter(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 30
	g := workload.New(cfg)
	c := openRanked(t, g, catalog.Options{}, g.Corpus())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := g.RankedQuery(r*1000 + i)
				if _, err := c.EvaluateRanked(q); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				i++
			}
		}(r)
	}
	for i := 0; i < 16; i++ {
		if _, err := c.Ingest("lab", g.Document(cfg.Docs+i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRankedSearchResponses: SearchRanked zips scores with the rebuilt
// documents in rank order, and the documents are real response XML.
func TestRankedSearchResponses(t *testing.T) {
	cfg := workload.Default()
	cfg.Docs = 40
	g := workload.New(cfg)
	c := openRanked(t, g, catalog.Options{}, g.Corpus())

	q := &catalog.Query{Rank: &catalog.RankSpec{Terms: []string{"temperature", "humidity"}, K: 8}}
	scored, err := c.EvaluateRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.SearchRanked(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(scored) {
		t.Fatalf("SearchRanked returned %d docs for %d scored IDs", len(resp), len(scored))
	}
	for i, r := range resp {
		if r.ObjectID != scored[i].ID || r.Score != scored[i].Score {
			t.Fatalf("result %d: (%d, %v) != scored (%d, %v)", i, r.ObjectID, r.Score, scored[i].ID, scored[i].Score)
		}
		if !strings.Contains(r.XML, "<LEADresource>") {
			t.Fatalf("result %d: response is not a rebuilt document: %.80q", i, r.XML)
		}
	}
}
