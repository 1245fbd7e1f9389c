package workload

import (
	"bytes"
	"sort"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
)

// TestRankedQueryDeterminism: the ranked stream is a pure function of
// (seed, index), and different seeds produce different streams.
func TestRankedQueryDeterminism(t *testing.T) {
	g1 := New(Default())
	g2 := New(Default())
	for i := 0; i < 50; i++ {
		a, b := g1.RankedQuery(i), g2.RankedQuery(i)
		if len(a.Rank.Terms) != len(b.Rank.Terms) {
			t.Fatalf("query %d: term counts diverge", i)
		}
		for j := range a.Rank.Terms {
			if a.Rank.Terms[j] != b.Rank.Terms[j] {
				t.Fatalf("query %d term %d: %q != %q", i, j, a.Rank.Terms[j], b.Rank.Terms[j])
			}
		}
	}
	other := Default()
	other.Seed = 7
	g3 := New(other)
	same := 0
	for i := 0; i < 50; i++ {
		if g1.RankedQuery(i).Rank.Terms[0] == g3.RankedQuery(i).Rank.Terms[0] {
			same++
		}
	}
	if same == 50 {
		t.Fatal("seed change did not perturb the ranked stream")
	}
}

// TestRankedStreamZipfSkew: the head term must dominate the tail — the
// most frequent term appears at least 5x as often as the median one.
func TestRankedStreamZipfSkew(t *testing.T) {
	g := New(Default())
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		for _, term := range g.RankedQuery(i).Rank.Terms {
			counts[term]++
		}
	}
	if len(counts) < 10 {
		t.Fatalf("only %d distinct terms in 400 queries — vocabulary collapsed", len(counts))
	}
	hist := make([]int, 0, len(counts))
	for _, c := range counts {
		hist = append(hist, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(hist)))
	head, median := hist[0], hist[len(hist)/2]
	if head < 5*median {
		t.Fatalf("stream not Zipf-skewed: head=%d median=%d", head, median)
	}
}

// TestQueryLogRoundTrip: the JSON-lines log reproduces every query —
// ranked, structural, and composed — exactly (verified by re-marshal).
func TestQueryLogRoundTrip(t *testing.T) {
	g := New(Default())
	var qs []*catalog.Query
	for i := 0; i < 30; i++ {
		switch i % 4 {
		case 0:
			qs = append(qs, g.RankedQuery(i))
		case 1:
			qs = append(qs, g.RankedStructuralQuery(i))
		case 2:
			qs = append(qs, g.PointQuery(i, i, i))
		case 3:
			qs = append(qs, g.ThemeQuery(i))
		}
	}
	var buf bytes.Buffer
	if err := WriteQueryLog(&buf, qs); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadQueryLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(qs) {
		t.Fatalf("replay returned %d queries, wrote %d", len(replayed), len(qs))
	}
	for i := range qs {
		want, err := catalog.MarshalQueryJSON(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := catalog.MarshalQueryJSON(replayed[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("query %d did not round-trip:\nwrote %s\nread  %s", i, want, got)
		}
	}
}
