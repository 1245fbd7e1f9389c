package textindex

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   \t\n", nil},
		{"Convective_Precipitation_Amount", []string{"convective", "precipitation", "amount"}},
		{"radar-reflectivity, 2km", []string{"radar", "reflectivity", "2km"}},
		{"ARPS model v5.2.12", []string{"arps", "model", "v5", "2", "12"}},
		{"Überschall Größe", []string{"überschall", "größe"}},
		{"日本語 テスト", []string{"日本語", "テスト"}},
		{"---", nil},
		{strings.Repeat("a", MaxTokenRunes), []string{strings.Repeat("a", MaxTokenRunes)}},
		{strings.Repeat("a", MaxTokenRunes+1), nil},
		{"ok " + strings.Repeat("x", 500) + " fine", []string{"ok", "fine"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAnalyzeTermsDedupes(t *testing.T) {
	got := AnalyzeTerms([]string{"Radar Reflectivity", "radar", "STORM radar"})
	want := []string{"radar", "reflectivity", "storm"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalyzeTerms = %v, want %v", got, want)
	}
}

// postings returns the term's live posting list in ascending document
// order: what a single-segment index would hold for it.
func (ix *Index) postings(term string) []Posting {
	return mergePostings(ix.base.post[term], ix.delta.post[term], ix.dead)
}

func TestIndexBasics(t *testing.T) {
	b := NewBuilder()
	b.Add(1, "storm surge storm")
	b.Add(2, "surge model")
	b.Add(3, "quiet")
	b.Add(3, "") // no tokens: contributes nothing
	ix := b.Build()
	if ix.Docs() != 3 {
		t.Fatalf("Docs = %d, want 3", ix.Docs())
	}
	if ix.DocFreq("storm") != 1 || ix.DocFreq("surge") != 2 || ix.DocFreq("absent") != 0 {
		t.Fatalf("unexpected doc freqs: storm=%d surge=%d", ix.DocFreq("storm"), ix.DocFreq("surge"))
	}
	pl := ix.postings("surge")
	if len(pl) != 2 || pl[0].Doc != 1 || pl[1].Doc != 2 {
		t.Fatalf("postings not sorted by doc: %v", pl)
	}
	if pl := ix.postings("storm"); pl[0].TF != 2 {
		t.Fatalf("tf(storm, doc1) = %d, want 2", pl[0].TF)
	}

	top := ix.TopK([]string{"storm", "surge"}, 10, nil, nil)
	if len(top) != 2 || top[0].Doc != 1 {
		t.Fatalf("TopK = %v, want doc 1 first (matches both terms, tf 2)", top)
	}
	if top[0].Score <= top[1].Score {
		t.Fatalf("scores not descending: %v", top)
	}

	// allow filter excludes doc 1 entirely.
	top = ix.TopK([]string{"storm", "surge"}, 10, nil, func(d int64) bool { return d != 1 })
	if len(top) != 1 || top[0].Doc != 2 {
		t.Fatalf("filtered TopK = %v, want only doc 2", top)
	}

	// k truncation.
	if top := ix.TopK([]string{"surge"}, 1, nil, nil); len(top) != 1 {
		t.Fatalf("k=1 returned %d results", len(top))
	}
	// Degenerate inputs.
	if ix.TopK(nil, 5, nil, nil) != nil || ix.TopK([]string{"surge"}, 0, nil, nil) != nil {
		t.Fatal("empty terms / k=0 should return nil")
	}
	if NewBuilder().Build().TopK([]string{"x"}, 5, nil, nil) != nil {
		t.Fatal("empty index should return nil")
	}
}

func TestStatsMerge(t *testing.T) {
	b1 := NewBuilder()
	b1.Add(1, "alpha beta")
	b2 := NewBuilder()
	b2.Add(2, "alpha gamma gamma")
	terms := []string{"alpha", "beta", "gamma"}
	var global Stats
	global.Merge(b1.Build().StatsFor(terms))
	global.Merge(b2.Build().StatsFor(terms))
	if global.Docs != 2 || global.TotalLen != 5 {
		t.Fatalf("merged stats = %+v", global)
	}
	if global.DocFreq["alpha"] != 2 || global.DocFreq["beta"] != 1 || global.DocFreq["gamma"] != 1 {
		t.Fatalf("merged doc freqs = %v", global.DocFreq)
	}
}

// TestShardedScoringMatchesSingleIndex is the distributed-statistics
// contract: splitting a corpus across indexes and scoring each with the
// summed Stats yields bit-identical scores to one index over the whole
// corpus.
func TestShardedScoringMatchesSingleIndex(t *testing.T) {
	docs := corpusDocs(rand.New(rand.NewSource(7)), 200)
	whole := NewBuilder()
	parts := []*Builder{NewBuilder(), NewBuilder(), NewBuilder()}
	for doc, text := range docs {
		whole.Add(doc, text)
		parts[doc%3].Add(doc, text)
	}
	single := whole.Build()
	terms := []string{"storm", "pressure", "radar"}

	var global Stats
	shards := make([]*Index, len(parts))
	for i, p := range parts {
		shards[i] = p.Build()
		global.Merge(shards[i].StatsFor(terms))
	}
	var merged []Scored
	for _, sh := range shards {
		merged = append(merged, sh.TopK(terms, len(docs), &global, nil)...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].Doc < merged[j].Doc
	})
	want := single.TopK(terms, len(docs), nil, nil)
	if len(merged) != len(want) {
		t.Fatalf("sharded %d results, single %d", len(merged), len(want))
	}
	for i := range want {
		if merged[i].Doc != want[i].Doc || merged[i].Score != want[i].Score {
			t.Fatalf("result %d: sharded %+v, single %+v", i, merged[i], want[i])
		}
	}
}

// bruteForceTopK recomputes BM25 from the raw documents with an
// independent implementation: tokenize every document, count term
// frequencies, and score-and-sort the whole corpus.
func bruteForceTopK(docs map[int64]string, terms []string, k int, allow func(int64) bool) []Scored {
	type docInfo struct {
		tf  map[string]int
		len int
	}
	infos := make(map[int64]docInfo)
	totalLen := 0
	for doc, text := range docs {
		toks := Tokenize(text)
		if len(toks) == 0 {
			continue
		}
		info := docInfo{tf: map[string]int{}, len: len(toks)}
		for _, tok := range toks {
			info.tf[tok]++
		}
		infos[doc] = info
		totalLen += len(toks)
	}
	n := len(infos)
	if n == 0 {
		return nil
	}
	avg := float64(totalLen) / float64(n)
	df := map[string]int{}
	for _, info := range infos {
		for tok := range info.tf {
			df[tok]++
		}
	}
	var out []Scored
	for doc, info := range infos {
		if allow != nil && !allow(doc) {
			continue
		}
		score := 0.0
		hit := false
		for _, term := range terms {
			tf := info.tf[term]
			if tf == 0 || df[term] == 0 {
				continue
			}
			hit = true
			idf := math.Log1p((float64(n) - float64(df[term]) + 0.5) / (float64(df[term]) + 0.5))
			norm := BM25K1 * (1 - BM25B + BM25B*float64(info.len)/avg)
			score += idf * float64(tf) * (BM25K1 + 1) / (float64(tf) + norm)
		}
		if hit {
			out = append(out, Scored{Doc: doc, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

var corpusVocab = []string{
	"storm", "surge", "radar", "reflectivity", "pressure", "humidity",
	"convective", "precipitation", "amount", "model", "grid", "arps",
	"velocity", "wind", "temperature", "forecast",
}

func corpusDocs(rng *rand.Rand, n int) map[int64]string {
	docs := make(map[int64]string, n)
	for i := 0; i < n; i++ {
		words := make([]string, 2+rng.Intn(12))
		for j := range words {
			words[j] = corpusVocab[rng.Intn(len(corpusVocab))]
		}
		docs[int64(i)] = strings.Join(words, " ")
	}
	return docs
}

// TestTopKMatchesBruteForce is the property test required by the
// ranked-search issue: for randomized corpora, query term sets, k
// values, and admission filters, the index's TopK equals an independent
// brute-force score-and-sort oracle exactly (same docs, same order,
// same float64 scores). The admission filter is asked at most once per
// document per query, however many query terms the document matches.
func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		docs := corpusDocs(rng, 1+rng.Intn(120))
		b := NewBuilder()
		for doc, text := range docs {
			// Split some documents across multiple Add calls to exercise
			// accumulation.
			if cut := strings.LastIndex(text[:len(text)/2], " "); rng.Intn(2) == 0 && cut > 0 {
				b.Add(doc, text[:cut])
				b.Add(doc, text[cut:])
			} else {
				b.Add(doc, text)
			}
		}
		ix := b.Build()

		nTerms := 1 + rng.Intn(4)
		terms := make([]string, nTerms)
		for i := range terms {
			terms[i] = corpusVocab[rng.Intn(len(corpusVocab))]
		}
		terms = AnalyzeTerms(terms)
		k := 1 + rng.Intn(20)
		var allow func(int64) bool
		if rng.Intn(3) == 0 {
			mod := int64(2 + rng.Intn(3))
			allow = func(d int64) bool { return d%mod == 0 }
		}

		asked := map[int64]int{}
		counting := allow
		if allow != nil {
			counting = func(d int64) bool {
				asked[d]++
				return allow(d)
			}
		}
		got := ix.TopK(terms, k, nil, counting)
		for d, n := range asked {
			if n > 1 {
				t.Fatalf("trial %d: allow asked %d times about document %d (%d terms)", trial, n, d, len(terms))
			}
		}
		want := bruteForceTopK(docs, terms, k, allow)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, oracle %d\ngot:  %v\nwant: %v", trial, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
				t.Fatalf("trial %d result %d: got %+v, oracle %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// FuzzTokenize fuzzes the analyzer over arbitrary byte sequences
// (invalid UTF-8, huge runs, exotic Unicode): it must never panic, and
// every produced token must be non-empty, bounded, lowercase, and
// alphanumeric.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"", " ", "hello world", "Convective_Precipitation_Amount",
		"ÜBERSCHALL-Größe", "日本語 テスト", "\xff\xfe broken \x80 utf8",
		strings.Repeat("a", 1<<12), strings.Repeat("ab ", 1000),
		"mixed 123 MIXED \x00 \ufffd end",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("empty token")
			}
			runes := []rune(tok)
			if len(runes) > MaxTokenRunes {
				t.Fatalf("token %q exceeds %d runes", tok, MaxTokenRunes)
			}
			for _, r := range runes {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains non-alphanumeric rune %q", tok, r)
				}
				if unicode.ToLower(r) != r {
					t.Fatalf("token %q not lowercased", tok)
				}
			}
		}
		// Analyzer agreement: AnalyzeTerms over the same input yields a
		// subset (the dedup) of the tokens, in order.
		deduped := AnalyzeTerms([]string{s})
		seen := map[string]bool{}
		var manual []string
		for _, tok := range toks {
			if !seen[tok] {
				seen[tok] = true
				manual = append(manual, tok)
			}
		}
		if !reflect.DeepEqual(deduped, manual) {
			t.Fatalf("AnalyzeTerms disagrees with Tokenize+dedup: %v vs %v", deduped, manual)
		}
		// Indexing arbitrary text must not panic and must keep lengths
		// consistent.
		b := NewBuilder()
		b.Add(1, s)
		ix := b.Build()
		if len(toks) == 0 && ix.Docs() != 0 {
			t.Fatal("tokenless text should index no documents")
		}
	})
}

// requireSameAsScratch asserts that ix answers exactly as an index
// built from scratch over model does: the same dimensions, statistics
// and posting lists, and bit-identical TopK under local and external
// statistics, with and without an admission filter.
func requireSameAsScratch(t *testing.T, ix *Index, model map[int64]string) {
	t.Helper()
	b := NewBuilder()
	for doc, text := range model {
		b.Add(doc, text)
	}
	want := b.Build()
	if ix.Docs() != want.Docs() || ix.Terms() != want.Terms() {
		t.Fatalf("docs/terms = %d/%d, scratch %d/%d", ix.Docs(), ix.Terms(), want.Docs(), want.Terms())
	}
	vocab := append([]string{"absent"}, corpusVocab...)
	if got, w := ix.StatsFor(vocab), want.StatsFor(vocab); !reflect.DeepEqual(got, w) {
		t.Fatalf("StatsFor = %+v, scratch %+v", got, w)
	}
	for _, term := range vocab {
		if got, w := ix.DocFreq(term), want.DocFreq(term); got != w {
			t.Fatalf("DocFreq(%q) = %d, scratch %d", term, got, w)
		}
		got, w := ix.postings(term), want.postings(term)
		if len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
			t.Fatalf("postings(%q) = %v, scratch %v", term, got, w)
		}
	}
	global := want.StatsFor(vocab)
	global.Merge(global) // any statistics other than the index's own
	even := func(d int64) bool { return d%2 == 0 }
	for i := 0; i+2 < len(corpusVocab); i += 3 {
		terms := corpusVocab[i : i+3]
		for _, st := range []*Stats{nil, &global} {
			for _, allow := range []func(int64) bool{nil, even} {
				got, w := ix.TopK(terms, 7, st, allow), want.TopK(terms, 7, st, allow)
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("TopK(%v) = %v, scratch %v", terms, got, w)
				}
			}
		}
	}
}

// applyOps drives an index through a scripted sequence of Apply calls
// against a model map and checks it against a scratch build after every
// step, as well as the immutability of the index each step started
// from. Each op byte removes or (re)writes a few documents of a small
// ID space, so IDs collide: replaced documents, documents removed from
// the delta, terms whose last document dies, repeated compactions.
func applyOps(t *testing.T, ops []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(ops))))
	model := map[int64]string{}
	ix := NewBuilder().Build()
	for i := 0; i < len(ops); i++ {
		before, beforeModel := ix, make(map[int64]string, len(model))
		for d, s := range model {
			beforeModel[d] = s
		}
		var removed []int64
		added := NewBuilder()
		n := 1 + int(ops[i]>>6)
		for j := 0; j < n; j++ {
			doc := int64(ops[i]&0x1f) + int64(j)*7
			switch {
			case ops[i]&0x20 != 0:
				removed = append(removed, doc)
				delete(model, doc)
			default:
				words := make([]string, rng.Intn(6)) // zero words: the document vanishes
				for w := range words {
					words[w] = corpusVocab[(int(ops[i])+w*int(doc+1)+rng.Intn(3))%len(corpusVocab)]
				}
				text := strings.Join(words, " ")
				removed = append(removed, doc)
				added.Add(doc, text)
				if text == "" {
					delete(model, doc)
				} else {
					model[doc] = text
				}
			}
		}
		ix = before.Apply(removed, added)
		requireSameAsScratch(t, ix, model)
		requireSameAsScratch(t, before, beforeModel)
	}
}

// TestApplyMatchesRebuild: an index advanced by any sequence of Apply
// calls answers exactly as one rebuilt from scratch, and Apply never
// disturbs the index it was called on.
func TestApplyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		ops := make([]byte, 10+rng.Intn(60))
		rng.Read(ops)
		applyOps(t, ops)
	}
}

// TestApplyCompacts pins the layout rule: a change within
// 1/compactDivisor of the base stays in the delta, sharing the base
// segment, and the change that crosses it leaves a single segment.
func TestApplyCompacts(t *testing.T) {
	b := NewBuilder()
	for d := int64(0); d < 8*compactDivisor; d++ {
		b.Add(d, "storm surge")
	}
	ix := b.Build()
	for d := int64(100); d < 108; d++ {
		one := NewBuilder()
		one.Add(d, "radar")
		ix = ix.Apply(nil, one)
		if len(ix.delta.docLen) != int(d-99) || len(ix.base.docLen) != 8*compactDivisor {
			t.Fatalf("after %d small changes: base %d, delta %d docs", d-99, len(ix.base.docLen), len(ix.delta.docLen))
		}
	}
	ix = ix.Apply([]int64{0}, NewBuilder())
	if len(ix.delta.docLen) != 0 || len(ix.dead) != 0 || len(ix.base.docLen) != 8*compactDivisor+7 {
		t.Fatalf("crossing the bound did not compact: base %d, delta %d, dead %d",
			len(ix.base.docLen), len(ix.delta.docLen), len(ix.dead))
	}
}

// FuzzIndexApply fuzzes Apply sequences against a rebuild (see
// applyOps for how the bytes are read).
func FuzzIndexApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x21, 0x01, 0x41, 0x61})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x29, 0x28, 0x09})
	f.Add([]byte{0xc0, 0xc1, 0xe0, 0xc2, 0xe1, 0x03, 0x23, 0x03, 0xff, 0xdf})
	f.Add(bytes.Repeat([]byte{0x05, 0x25}, 12))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		applyOps(t, ops)
	})
}
