package catalog

import (
	"fmt"
	"math"
	"strings"

	"github.com/gridmeta/hybridcat/internal/cache"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// The catalog's read caches. The hot read path recomputes nothing it has
// already answered since the last mutation:
//
//   - evaluate: whole Figure-4 results ([]int64 object IDs) keyed by a
//     canonical serialization of (Owner, criteria tree),
//   - postings: per-criterion directly-satisfied instances as sorted
//     instance-key lists ([]uint64), keyed by the resolved definition
//     IDs and predicates and shared across queries that repeat a
//     criterion; cached lists are immutable and shared read-only across
//     concurrent evaluations,
//   - response: per-object rebuilt XML documents keyed by object ID, so
//     repeated fetches and overlapping result sets skip the §5 merge;
//     each entry also keeps the document's JSON string literal once a
//     /search reply has needed it, so a cached document is escaped once
//     for as long as its object's content stays the same, not once per
//     reply.
//
// Every entry is stamped with the epoch of the reader's pinned snapshot
// (every committed transaction — ingest, delete, publish, membership,
// definition registration — publishes a new epoch). Evaluate and postings
// entries are served only at that epoch: any new document can match
// any query, so a mutation invalidates them by publishing a new epoch,
// and no entry is ever tracked or walked. A response entry depends on
// its object's CLOB rows alone, so it is stamped at two levels: the
// epoch it was last verified at, and the number of CLOB rows it was
// built from (builtDoc). A reader at another epoch re-verifies it by
// counting the object's rows in its own snapshot, so a write keeps the
// documents of every object it did not touch.
//
// Consistency argument: a reader pins an immutable snapshot at epoch g
// before touching any table, computes only from that snapshot, and
// stamps what it stores with g — so a value stamped g was computed from
// exactly the table state of epoch g, no lock required. The cache
// serves an entry only to readers presenting the same stamp, or, on the
// response layer, to a reader that has just checked against its own
// snapshot that the entry equals what that snapshot builds (builtDoc
// names the two invariants that make the check exact) and then restamps
// it. So a reader pinned at g never sees a value that differs from what
// epoch g computes, even while writers publish g+1, g+2, ...
// concurrently. (A behind-the-current reader may re-store or restamp an
// entry with its older epoch; that costs a recompute or a re-check
// later, never correctness.)

// DefaultCacheSize is the per-layer entry cap when Options.CacheSize is
// zero.
const DefaultCacheSize = 4096

// catCaches groups the three read-cache layers. All nil means caching is
// disabled; the layers are enabled and sized together.
type catCaches struct {
	eval     *cache.Cache[string, []int64]
	postings *cache.Cache[string, []uint64]
	response *cache.Cache[int64, *builtDoc]
}

// initCaches builds the cache layers per the catalog options; called
// from Open.
func (c *Catalog) initCaches() {
	size := c.opts.CacheSize
	if size < 0 {
		return
	}
	if size == 0 {
		size = DefaultCacheSize
	}
	c.caches.eval = cache.New[string, []int64](size, cache.StringHash)
	c.caches.postings = cache.New[string, []uint64](size, cache.StringHash)
	c.caches.response = cache.New[int64, *builtDoc](size, cache.Int64Hash)
	c.caches.eval.Instrument(c.obsv.reg, "evaluate")
	c.caches.postings.Instrument(c.obsv.reg, "postings")
	c.caches.response.Instrument(c.obsv.reg, "response")
}

// CacheStats reports the per-layer cache counters, the data generation
// (snapshot epoch) evaluate and postings entries are stamped with, and
// the registry generation dynamic registration advances. Zero layers
// with Enabled=false mean caching is off.
type CacheStats struct {
	Enabled            bool        `json:"enabled"`
	DataGeneration     uint64      `json:"data_generation"`
	RegistryGeneration uint64      `json:"registry_generation"`
	Evaluate           cache.Stats `json:"evaluate"`
	Postings           cache.Stats `json:"postings"`
	Response           cache.Stats `json:"response"`
}

// CacheStats snapshots the read-cache counters.
func (c *Catalog) CacheStats() CacheStats {
	return CacheStats{
		Enabled:            c.caches.eval != nil,
		DataGeneration:     c.DB.Generation(),
		RegistryGeneration: c.Reg.Generation(),
		Evaluate:           c.caches.eval.Stats(),
		Postings:           c.caches.postings.Stats(),
		Response:           c.caches.response.Stats(),
	}
}

// queryCacheKey canonically serializes (Owner, criteria tree) into the
// evaluate cache key. Every variable-length field is
// length-prefixed, so distinct queries can never collide. Rank is not
// part of the key: evaluateTraced refuses ranked queries before it
// builds one.
func queryCacheKey(q *Query) string {
	var b strings.Builder
	b.WriteByte('o')
	writeLenPrefixed(&b, q.Owner)
	for _, a := range q.Attrs {
		writeCritKey(&b, a)
	}
	return b.String()
}

func writeLenPrefixed(b *strings.Builder, s string) {
	fmt.Fprintf(b, "%d:%s", len(s), s)
}

func writeCritKey(b *strings.Builder, a *AttrCriteria) {
	b.WriteString("A(")
	writeLenPrefixed(b, a.Name)
	writeLenPrefixed(b, a.Source)
	for _, e := range a.Elems {
		b.WriteString("E(")
		writeLenPrefixed(b, e.Name)
		writeLenPrefixed(b, e.Source)
		fmt.Fprintf(b, "%d", e.Op)
		writeValueKey(b, e.Value)
		for _, v := range e.OneOf {
			writeValueKey(b, v)
		}
		b.WriteByte(')')
	}
	for _, s := range a.Subs {
		writeCritKey(b, s)
	}
	b.WriteByte(')')
}

// writeValueKey serializes a predicate value with its kind, so Int(5),
// Float(5), and Str("5") key differently — they probe different indexes.
func writeValueKey(b *strings.Builder, v relstore.Value) {
	switch v.K {
	case relstore.KInt:
		fmt.Fprintf(b, "i%d", v.I)
	case relstore.KFloat:
		fmt.Fprintf(b, "f%016x", math.Float64bits(v.F))
	case relstore.KString:
		b.WriteByte('s')
		writeLenPrefixed(b, v.S)
	case relstore.KBool:
		fmt.Fprintf(b, "t%d", v.I)
	default:
		b.WriteByte('n')
	}
}

// probeKeyOf builds a criteria node's postings-layer key from its
// resolved definition IDs and predicates. Two nodes with the same key —
// within one query or across queries — satisfy identical instance sets,
// so the postings layer memoizes the stage-1+2 set once per data
// generation.
func probeKeyOf(n *qNode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d", n.def.ID)
	for _, qe := range n.elems {
		fmt.Fprintf(&b, "e%d,%d", qe.def.ID, qe.pred.Op)
		writeValueKey(&b, qe.pred.Value)
		for _, v := range qe.pred.OneOf {
			writeValueKey(&b, v)
		}
	}
	return b.String()
}
