package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/textindex"
)

// The search workload mode: BM25 ranked queries over the corpus's
// textual element values (theme keywords, place names, origins, titles),
// with term popularity following a Zipf distribution — a few head terms
// dominate the stream, matching observed metadata-search traffic, while
// the tail exercises low-df scoring. Queries are deterministic in
// (Config.Seed, query index) like the rest of the generator, and a
// query stream can be written to and replayed from a JSON-lines log so
// two stores (or two builds) can be compared on the identical stream.

// SearchVocabulary returns the ranked-query term vocabulary in
// popularity order (index 0 is the Zipf head): every token the corpus
// generator emits into textual element values, via the same tokenizer
// the text index applies.
func (g *Generator) SearchVocabulary() []string {
	seen := map[string]bool{}
	var vocab []string
	add := func(vals ...string) {
		for _, v := range vals {
			for _, tok := range textindex.Tokenize(v) {
				if !seen[tok] {
					seen[tok] = true
					vocab = append(vocab, tok)
				}
			}
		}
	}
	add(themeKeys...)
	add(placeKeys...)
	add(origins...)
	add(themeKts...)
	add("Forecast run", "Complete", "In work", "ARPS forecast integration")
	return vocab
}

// RankedQuery builds ranked query i of the stream: 1-3 Zipf-skewed
// vocabulary terms with the default top-k bound. Superuser scope — the
// stream measures ranking, not visibility.
func (g *Generator) RankedQuery(i int) *catalog.Query {
	rng := rand.New(rand.NewSource(g.cfg.Seed*2_000_003 + int64(i)))
	vocab := g.SearchVocabulary()
	zipf := rand.NewZipf(rng, 1.3, 1.5, uint64(len(vocab)-1))
	n := 1 + rng.Intn(3)
	terms := make([]string, 0, n)
	used := map[string]bool{}
	for len(terms) < n {
		t := vocab[zipf.Uint64()]
		if used[t] {
			continue
		}
		used[t] = true
		terms = append(terms, t)
	}
	return &catalog.Query{Rank: &catalog.RankSpec{Terms: terms, K: catalog.DefaultRankK}}
}

// RankedStructuralQuery composes ranked retrieval with a structural
// criterion: the same Zipf-skewed terms gated by a place-keyword
// equality, the content-and-structure shape of the paper's §3 keyword
// enhancement.
func (g *Generator) RankedStructuralQuery(i int) *catalog.Query {
	q := g.RankedQuery(i)
	q.Attr("place", "").AddElem("placekey", "", relstore.OpEq,
		relstore.Str(placeKeys[i%len(placeKeys)]))
	return q
}

// WriteQueryLog writes queries as a JSON-lines log (one compact wire-
// format query per line), replayable with ReadQueryLog.
func WriteQueryLog(w io.Writer, qs []*catalog.Query) error {
	for _, q := range qs {
		data, err := catalog.MarshalQueryJSON(q)
		if err != nil {
			return err
		}
		var line bytes.Buffer
		if err := json.Compact(&line, data); err != nil {
			return err
		}
		line.WriteByte('\n')
		if _, err := w.Write(line.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// ReadQueryLog replays a JSON-lines query log written by WriteQueryLog.
func ReadQueryLog(r io.Reader) ([]*catalog.Query, error) {
	var qs []*catalog.Query
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		q, err := catalog.ParseQueryJSON([]byte(line))
		if err != nil {
			return nil, fmt.Errorf("workload: query log line %d: %w", len(qs)+1, err)
		}
		qs = append(qs, q)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return qs, nil
}
