// Package textindex is a tokenized inverted index with BM25 ranking
// over the catalog's attribute text values — the IR half of the hybrid
// content-and-structure search scenario (ROADMAP; Pehcevski, cs/0507070
// and cs/0508017). The index maps analyzed terms to per-document term
// frequencies plus document lengths; TopK scores a bag of query terms
// with BM25 and returns the k best documents, optionally restricted by
// a caller-supplied admission filter (structural matches, visibility).
//
// Indexes are immutable: the catalog builds one from scratch on the
// first ranked query, then moves it from snapshot to snapshot with
// Apply, which returns a new Index sharing everything the change did
// not touch (see Apply for the base + delta layout). Readers share an
// Index without locks. For distributed scoring, Stats
// carries the corpus statistics (document count, total token length,
// per-term document frequencies); summing every shard's Stats and
// passing the total to TopK makes a scatter-gathered ranking identical
// to a single index holding the union of the shards' documents.
package textindex

import (
	"maps"
	"math"
	"sort"
	"unicode"
)

// MaxTokenRunes bounds a single token's length; longer letter/digit
// runs (base64 blobs, minified payloads) are dropped rather than
// indexed, so a huge pathological value cannot bloat the term
// dictionary.
const MaxTokenRunes = 64

// BM25 parameters, the standard Robertson defaults.
const (
	BM25K1 = 1.2
	BM25B  = 0.75
)

// Tokenize lowercases the text and splits it into letter/digit runs —
// any other rune (punctuation, separators, symbols) is a boundary.
// Tokens longer than MaxTokenRunes are dropped. The same analyzer runs
// over indexed values and query terms, so the two always agree.
func Tokenize(text string) []string {
	var out []string
	var run []rune
	flush := func() {
		if n := len(run); n > 0 && n <= MaxTokenRunes {
			out = append(out, string(run))
		}
		run = run[:0]
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			run = append(run, unicode.ToLower(r))
			continue
		}
		flush()
	}
	flush()
	return out
}

// AnalyzeTerms tokenizes each raw query term and returns the distinct
// analyzed tokens in first-appearance order. Deduplication makes
// scoring independent of repeated query terms, and the stable order
// keeps floating-point score accumulation deterministic across runs
// and across shards.
func AnalyzeTerms(terms []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range terms {
		for _, tok := range Tokenize(t) {
			if !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
	}
	return out
}

// Posting is one document's entry in a term's posting list.
type Posting struct {
	Doc int64
	TF  int32
}

// Scored is one ranked result: a document and its BM25 score.
type Scored struct {
	Doc   int64
	Score float64
}

// Stats carries the corpus statistics BM25 scoring depends on. A zero
// Stats means "use the index's own"; summed Stats from several indexes
// (Merge) score a distributed corpus with global frequencies.
type Stats struct {
	// Docs is the number of indexed documents.
	Docs int64 `json:"docs"`
	// TotalLen is the total token count across all documents.
	TotalLen int64 `json:"total_len"`
	// DocFreq maps an analyzed term to the number of documents
	// containing it.
	DocFreq map[string]int64 `json:"doc_freq"`
}

// Merge adds o's statistics into s (summing document counts, lengths,
// and per-term frequencies).
func (s *Stats) Merge(o Stats) {
	s.Docs += o.Docs
	s.TotalLen += o.TotalLen
	if s.DocFreq == nil {
		s.DocFreq = make(map[string]int64, len(o.DocFreq))
	}
	for t, n := range o.DocFreq {
		s.DocFreq[t] += n
	}
}

// Builder accumulates documents for one immutable Index. Add may be
// called any number of times per document; token counts accumulate.
type Builder struct {
	tf  map[string]*termDocs
	seg segment // docLen and terms fill as documents arrive; post at Build
}

// termDocs is one term's per-document counts. term is the one copy of
// the string that the dictionary and every forward-map entry share.
type termDocs struct {
	term string
	tf   map[int64]int32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		tf:  make(map[string]*termDocs),
		seg: segment{docLen: make(map[int64]int32), terms: make(map[int64][]string)},
	}
}

// Add tokenizes text and credits its tokens to doc. Text producing no
// tokens contributes nothing (the document exists only if some Add
// produced at least one token).
func (b *Builder) Add(doc int64, text string) {
	toks := Tokenize(text)
	if len(toks) == 0 {
		return
	}
	b.seg.docLen[doc] += int32(len(toks))
	for _, t := range toks {
		td := b.tf[t]
		if td == nil {
			td = &termDocs{term: t, tf: make(map[int64]int32)}
			b.tf[t] = td
		}
		if td.tf[doc] == 0 {
			b.seg.terms[doc] = append(b.seg.terms[doc], td.term)
		}
		td.tf[doc]++
	}
}

// freeze turns the accumulated counts into a segment. Posting lists are
// sorted by ascending document ID. The builder must not be used again.
func (b *Builder) freeze() segment {
	b.seg.post = make(map[string][]Posting, len(b.tf))
	for t, td := range b.tf {
		pl := make([]Posting, 0, len(td.tf))
		for doc, tf := range td.tf {
			pl = append(pl, Posting{Doc: doc, TF: tf})
		}
		sort.Slice(pl, func(i, j int) bool { return pl[i].Doc < pl[j].Doc })
		b.seg.post[t] = pl
	}
	return b.seg
}

// Build freezes the builder into an immutable single-segment Index.
func (b *Builder) Build() *Index {
	ix := &Index{base: b.freeze()}
	ix.docs = int64(len(ix.base.docLen))
	ix.terms = len(ix.base.post)
	for _, n := range ix.base.docLen {
		ix.totalLen += int64(n)
	}
	return ix
}

// segment is one immutable inverted-index run: posting lists, document
// lengths, and the forward map (document → its distinct terms) that
// lets Apply retire a document without scanning every posting list.
type segment struct {
	post   map[string][]Posting
	docLen map[int64]int32
	terms  map[int64][]string
}

// compactDivisor fixes when Apply folds the delta back into the base:
// as soon as the documents outside the base's live part (delta
// documents plus dead base documents) outnumber 1/compactDivisor of the
// base. Below it, an Apply copies at most that share of the corpus;
// compaction costs one merge of the whole index per base/compactDivisor
// changed documents.
const compactDivisor = 8

// Index is an immutable inverted index over tokenized text, safe for
// concurrent readers.
//
// It is a base segment plus the change since the base was built: a
// small delta segment and the set of base documents that are dead
// (deleted, or superseded by a delta copy). Every live document is in
// exactly one segment. The corpus statistics are kept merged and exact
// — docs, totalLen, and per term len(base postings) − deadDF +
// len(delta postings) — so every answer equals that of an index built
// from scratch over the same documents.
type Index struct {
	base, delta segment
	dead        map[int64]struct{}
	deadDF      map[string]int32 // dead documents per base posting list

	docs     int64
	totalLen int64
	terms    int // terms with a non-zero document frequency
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int { return int(ix.docs) }

// Terms returns the number of distinct terms in the dictionary.
func (ix *Index) Terms() int { return ix.terms }

// DocFreq returns the number of documents containing the analyzed term.
func (ix *Index) DocFreq(term string) int {
	return len(ix.base.post[term]) - int(ix.deadDF[term]) + len(ix.delta.post[term])
}

// cloneMap is maps.Clone that turns a nil map into an empty one, so the
// copy can be written to.
func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	return maps.Clone(m)
}

// mergePostings merges two ascending posting lists, base without its
// dead documents and delta, which then share no document. It returns
// base itself when there is nothing to drop or add.
func mergePostings(base, delta []Posting, dead map[int64]struct{}) []Posting {
	if len(delta) == 0 && len(dead) == 0 {
		return base
	}
	out := make([]Posting, 0, len(base)+len(delta))
	for _, p := range base {
		if _, gone := dead[p.Doc]; gone {
			continue
		}
		for len(delta) > 0 && delta[0].Doc < p.Doc {
			out = append(out, delta[0])
			delta = delta[1:]
		}
		out = append(out, p)
	}
	return append(out, delta...)
}

// Apply returns the index over this index's documents minus removed,
// with every document of added put in place of any indexed copy of it.
// The receiver is unchanged and stays valid; the result shares its base
// segment and every delta posting list the change does not touch. Its
// cost is bounded by the size of the change plus the delta, not by the
// corpus — except when the delta outgrows 1/compactDivisor of the base,
// where the result is compacted to a single segment. Unknown IDs in
// removed are ignored. added must not be used afterwards.
func (ix *Index) Apply(removed []int64, added *Builder) *Index {
	add := added.freeze()
	n := &Index{
		base:     ix.base,
		dead:     cloneMap(ix.dead),
		deadDF:   cloneMap(ix.deadDF),
		docs:     ix.docs,
		totalLen: ix.totalLen,
		terms:    ix.terms,
		delta: segment{
			post:   cloneMap(ix.delta.post),
			docLen: cloneMap(ix.delta.docLen),
			terms:  cloneMap(ix.delta.terms),
		},
	}

	// Retire the current copy of every removed or replaced document:
	// base copies join the dead set, delta copies leave the delta.
	touched := make(map[string]struct{}) // terms whose document frequency may move
	leaving := make(map[int64]struct{})  // documents leaving the delta
	retire := func(doc int64) {
		if dl, ok := n.delta.docLen[doc]; ok {
			leaving[doc] = struct{}{}
			n.docs--
			n.totalLen -= int64(dl)
			for _, t := range n.delta.terms[doc] {
				touched[t] = struct{}{}
			}
			delete(n.delta.docLen, doc)
			delete(n.delta.terms, doc)
			return
		}
		dl, ok := n.base.docLen[doc]
		if _, gone := n.dead[doc]; !ok || gone {
			return
		}
		n.dead[doc] = struct{}{}
		n.docs--
		n.totalLen -= int64(dl)
		for _, t := range n.base.terms[doc] {
			n.deadDF[t]++
			touched[t] = struct{}{}
		}
	}
	for _, doc := range removed {
		retire(doc)
	}
	for doc := range add.docLen {
		retire(doc)
	}
	for doc, dl := range add.docLen {
		n.delta.docLen[doc] = dl
		n.delta.terms[doc] = add.terms[doc]
		n.docs++
		n.totalLen += int64(dl)
	}
	for t := range add.post {
		touched[t] = struct{}{}
	}

	// Rewrite only the delta posting lists the change touches; the
	// others stay shared with the receiver.
	for t := range touched {
		if pl := mergePostings(n.delta.post[t], add.post[t], leaving); len(pl) > 0 {
			n.delta.post[t] = pl
		} else {
			delete(n.delta.post, t)
		}
		if was, is := ix.DocFreq(t) > 0, n.DocFreq(t) > 0; was != is {
			if is {
				n.terms++
			} else {
				n.terms--
			}
		}
	}

	if len(n.delta.docLen)+len(n.dead) > len(n.base.docLen)/compactDivisor {
		return n.compact()
	}
	return n
}

// compact folds the dead set and the delta into one fresh base segment.
func (ix *Index) compact() *Index {
	seg := segment{
		post:   make(map[string][]Posting, ix.terms),
		docLen: make(map[int64]int32, ix.docs),
		terms:  make(map[int64][]string, ix.docs),
	}
	for t, pl := range ix.base.post {
		if ix.DocFreq(t) > 0 {
			seg.post[t] = mergePostings(pl, ix.delta.post[t], ix.dead)
		}
	}
	for t, pl := range ix.delta.post {
		if _, ok := ix.base.post[t]; !ok {
			seg.post[t] = pl
		}
	}
	for doc, dl := range ix.base.docLen {
		if _, gone := ix.dead[doc]; !gone {
			seg.docLen[doc], seg.terms[doc] = dl, ix.base.terms[doc]
		}
	}
	for doc, dl := range ix.delta.docLen {
		seg.docLen[doc], seg.terms[doc] = dl, ix.delta.terms[doc]
	}
	return &Index{base: seg, docs: ix.docs, totalLen: ix.totalLen, terms: ix.terms}
}

// StatsFor returns this index's corpus statistics, with DocFreq
// restricted to the given analyzed terms (all a scoring pass needs).
func (ix *Index) StatsFor(terms []string) Stats {
	st := Stats{
		Docs:     ix.docs,
		TotalLen: ix.totalLen,
		DocFreq:  make(map[string]int64, len(terms)),
	}
	for _, t := range terms {
		if df := ix.DocFreq(t); df > 0 {
			st.DocFreq[t] = int64(df)
		}
	}
	return st
}

// bm25IDF is the (always positive) BM25+ style inverse document
// frequency: ln(1 + (N - df + 0.5)/(df + 0.5)).
func bm25IDF(docs, df int64) float64 {
	return math.Log1p((float64(docs) - float64(df) + 0.5) / (float64(df) + 0.5))
}

// TopK scores the analyzed terms with BM25 and returns the k
// highest-scoring admitted documents, score descending with ties broken
// by ascending document ID. st supplies the corpus statistics (nil: the
// index's own — pass summed shard statistics for global scoring). allow,
// when non-nil, admits documents (structural candidate membership,
// visibility); it is asked at most once per document, and refused
// documents are skipped before scoring.
//
// Scoring is deterministic: a document's score accumulates over the
// terms in the given order, so equal corpora produce bit-identical
// scores regardless of sharding and of how the index is segmented.
func (ix *Index) TopK(terms []string, k int, st *Stats, allow func(int64) bool) []Scored {
	if k <= 0 || len(terms) == 0 {
		return nil
	}
	docs, totalLen := ix.docs, ix.totalLen
	if st != nil {
		docs, totalLen = st.Docs, st.TotalLen
	}
	if docs == 0 {
		return nil
	}
	avgLen := float64(totalLen) / float64(docs)
	scores := make(map[int64]float64)
	var refused map[int64]struct{}
	if allow != nil {
		refused = make(map[int64]struct{})
	}
	// admitted asks allow about a document the first time a posting
	// names it; an entry in scores is a remembered yes.
	admitted := func(doc int64) bool {
		if _, yes := scores[doc]; yes {
			return true
		}
		if _, no := refused[doc]; no {
			return false
		}
		if allow(doc) {
			return true
		}
		refused[doc] = struct{}{}
		return false
	}
	for _, t := range terms {
		local := int64(ix.DocFreq(t))
		if local == 0 {
			continue
		}
		df := local
		if st != nil {
			df = st.DocFreq[t]
		}
		if df == 0 {
			continue
		}
		idf := bm25IDF(docs, df)
		for i, seg := range [2]*segment{&ix.base, &ix.delta} {
			inBase := i == 0 && len(ix.dead) > 0
			for _, p := range seg.post[t] {
				if inBase {
					if _, gone := ix.dead[p.Doc]; gone {
						continue
					}
				}
				if allow != nil && !admitted(p.Doc) {
					continue
				}
				tf := float64(p.TF)
				dl := float64(seg.docLen[p.Doc])
				norm := BM25K1 * (1 - BM25B + BM25B*dl/avgLen)
				scores[p.Doc] += idf * tf * (BM25K1 + 1) / (tf + norm)
			}
		}
	}
	out := make([]Scored, 0, len(scores))
	for doc, s := range scores {
		out = append(out, Scored{Doc: doc, Score: s})
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
