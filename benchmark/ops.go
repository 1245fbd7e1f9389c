package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// opKind is the operation type a latency is reported under.
type opKind uint8

const (
	opQuery  opKind = iota // POST /query: matching IDs only (Figure 4)
	opSearch               // POST /search?limit=N: rebuilt XML (§5)
	opRanked               // POST /search with a rank clause
	opFetch                // GET /fetch?id=N
	opIngest               // POST /ingest?owner=U
	numKinds
)

var kindNames = [numKinds]string{"query", "search", "ranked", "fetch", "ingest"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated request. The server only ever sees method, path
// and body; the rest is what the oracle needs to judge the reply.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte         // query JSON; nil for fetch; ingest XML is made by materialize
	q      *catalog.Query // body as the server parses it (query, search, ranked)
	limit  int            // page size of search and ranked
	key    int            // hot-set identity, -1 for one-off requests
	sample bool           // one-off request whose reply goes to the oracle
	doc    int            // fetch: corpus index; ingest: generator index
	owner  string         // ingest: document owner
}

// ownerName is the owner of generator document i.
func ownerName(i int) string { return fmt.Sprintf("owner%02d", i%owners) }

// isPublished reports whether preloaded document i is published: half
// of every owner's documents are.
func isPublished(i int) bool { return i%(2*owners) < owners }

// opGen builds every workload's request streams from one seed.
type opGen struct {
	seed   int64
	sz     sizes
	gen    *workload.Generator
	themes []*catalog.AttrCriteria // themekey = K, one per keyword
	places []*catalog.AttrCriteria // placekey = P, one per place
	sub1   string                  // first parameter of a level-1 sub-group

	hot    []op  // search_hot structural hot set
	hotIDs []int // search_hot fetch hot set (corpus indices)
	mixed  []op  // mixed_sharded hot set: [0,3/4) owner-scoped searches, rest superuser queries
}

func newOpGen(seed int64, sz sizes) *opGen {
	g := &opGen{seed: seed, sz: sz, gen: workload.New(corpusConfig(seed, sz.Docs))}
	// The generator keeps its vocabularies private; its query builders
	// enumerate them.
	for i := 0; i < 12; i++ {
		g.themes = append(g.themes, g.gen.ThemeQuery(i).Attrs[0])
	}
	for i := 0; i < 6; i++ {
		g.places = append(g.places, g.gen.RankedStructuralQuery(i).Attrs[0])
	}
	g.sub1 = g.gen.NestedQuery(0, 0, 1).Attrs[0].Subs[0].Elems[0].Name
	g.hot = make([]op, sz.HotQueries)
	for j := range g.hot {
		g.hot[j] = g.queryOp(opSearch, g.hotShape(j, j/4%2 == 1), 20, j)
	}
	g.hotIDs = rand.New(rand.NewSource(seed*31 + 5)).Perm(sz.Docs)[:sz.HotIDs]
	g.mixed = make([]op, sz.MixedQueries)
	searches := sz.MixedQueries * 3 / 4
	for j := range g.mixed {
		if j < searches {
			g.mixed[j] = g.queryOp(opSearch, g.hotShape(j+sz.HotQueries, true), 10, j)
		} else {
			g.mixed[j] = g.queryOp(opQuery, g.hotShape(j+sz.HotQueries, false), 0, j)
		}
	}
	return g
}

// queryOp renders a query as the request that carries it. The oracle
// and the traced replay use the re-parsed body, so they judge exactly
// what the server decodes (a whole-number float arrives as an integer).
func (g *opGen) queryOp(kind opKind, q *catalog.Query, limit, key int) op {
	pretty, err := catalog.MarshalQueryJSON(q)
	if err != nil {
		panic(err) // the builders above only produce marshalable values
	}
	var body bytes.Buffer
	if err := json.Compact(&body, pretty); err != nil {
		panic(err)
	}
	parsed, err := catalog.ParseQueryJSON(body.Bytes())
	if err != nil {
		panic(err)
	}
	o := op{kind: kind, method: "POST", body: body.Bytes(), q: parsed, limit: limit, key: key, doc: -1}
	switch kind {
	case opQuery:
		o.path = "/query"
	default:
		o.path = "/search?limit=" + strconv.Itoa(limit)
	}
	return o
}

// dynamic returns the (group, parameter) identity of top-level
// parameter pi of namelist group gi, as the generator names them.
func (g *opGen) dynamic(gi, pi int) (attr *catalog.AttrCriteria, elem string) {
	a := g.gen.PointQuery(gi, pi, 0).Attrs[0]
	return &catalog.AttrCriteria{Name: a.Name, Source: a.Source}, a.Elems[0].Name
}

// uniqueBound is a range bound inside value bucket k that no other
// request of the run shares, so the query text cannot repeat.
func uniqueBound(k int, i int) float64 {
	return (float64(k)+0.5)*250 + float64(i%1_000_000)*1e-4 + 1e-5
}

// fig4 is request i of the fig4_cold sequence: 40% dynamic point +
// theme, 30% range with a unique bound, 20% depth-2 nested, 10%
// four-criterion; superuser and owner scope alternate. Point + theme
// requests walk 4800 combinations with a stride, so a text comes back
// only after ~24000 requests, far beyond the 4096-entry evaluate
// cache's reach; every other type carries a unique bound.
func (g *opGen) fig4(i int) op {
	r := rand.New(rand.NewSource(g.seed*7919 + int64(i)))
	d := i % 10
	q := &catalog.Query{}
	if (i/10+d)%2 == 1 {
		q.Owner = ownerName(r.Intn(owners))
	}
	switch {
	case d < 4:
		n := (i/10*4 + d) * 1237 % 4800
		p := g.gen.PointQuery(n/50%4, n/200%2, n%50)
		q.Attrs = append(p.Attrs, g.themes[n/400])
	case d < 7:
		attr, elem := g.dynamic(r.Intn(4), r.Intn(2))
		attr.AddElem(elem, attr.Source, relstore.OpLt, relstore.Float(uniqueBound(5+r.Intn(40), i)))
		q.Attrs = append(q.Attrs, attr)
	case d < 9:
		n := g.gen.NestedQuery(r.Intn(4), r.Intn(50), 2)
		sub1 := n.Attrs[0].Subs[0]
		sub1.AddElem(g.sub1, sub1.Source, relstore.OpLt, relstore.Float(uniqueBound(25+r.Intn(25), i)))
		q.Attrs = n.Attrs
	default:
		p := g.gen.PointQuery(r.Intn(4), r.Intn(2), r.Intn(50))
		attr, elem := g.dynamic(r.Intn(4), r.Intn(2))
		attr.AddElem(elem, attr.Source, relstore.OpLt, relstore.Float(uniqueBound(30+r.Intn(20), i)))
		q.Attrs = append(p.Attrs, g.themes[r.Intn(len(g.themes))], g.places[r.Intn(len(g.places))], attr)
	}
	o := g.queryOp(opQuery, q, 0, -1)
	o.sample = i%sampleEvery == 0
	return o
}

// hotShape is structural query j of a hot set: point, point + theme,
// depth-2 nested and range shapes in turn, each index a distinct text.
func (g *opGen) hotShape(j int, scoped bool) *catalog.Query {
	q := &catalog.Query{}
	if scoped {
		q.Owner = ownerName(j / 8)
	}
	n := j / 4
	switch j % 4 {
	case 0:
		q.Attrs = g.gen.PointQuery(n%4, n/4%2, n/8).Attrs
	case 1:
		q.Attrs = append(g.gen.PointQuery(n%4, n/4%2, n/8).Attrs, g.themes[n%len(g.themes)])
	case 2:
		q.Attrs = g.gen.NestedQuery(n%4, n/4, 2).Attrs
	default:
		attr, elem := g.dynamic(n%4, n/4%2)
		attr.AddElem(elem, attr.Source, relstore.OpLt, relstore.Float(float64(n/8%50)*250+125))
		q.Attrs = append(q.Attrs, attr)
	}
	return q
}

func (g *opGen) fetchOp(doc int) op {
	return op{kind: opFetch, method: "GET", key: g.sz.MixedQueries + g.sz.HotQueries + doc, doc: doc}
}

func (g *opGen) ingestOp(doc int) op {
	owner := ownerName(doc)
	return op{kind: opIngest, method: "POST", path: "/ingest?owner=" + owner, key: -1, doc: doc, owner: owner}
}

// materialize fills in what is known only at send time: an ingest's
// XML body (serialising costs the client more than a request, so it
// is made just before sending, outside the timed span) and a fetch's
// object ID.
func (g *opGen) materialize(o *op, ids []int64) {
	switch o.kind {
	case opIngest:
		o.body = []byte(g.gen.Document(o.doc).String())
	case opFetch:
		o.path = "/fetch?id=" + strconv.FormatInt(ids[o.doc], 10)
	}
}

// warmDocBase keeps warm-up ingests apart from measured ones.
const warmDocBase = 1 << 20

// stream returns client c's request sequence for a workload. Every
// call with the same arguments yields the same sequence.
func (g *opGen) stream(wl string, c int) func() op {
	r := rand.New(rand.NewSource(g.seed*1_000_003 + int64(c)*97 + 11))
	j := -1
	switch wl {
	case wlFig4Cold:
		return func() op { j++; return g.fig4(j*clients + c) }
	case wlSearchHot:
		zipf := rand.NewZipf(r, 1.1, 1, uint64(len(g.hot)-1))
		return func() op {
			if r.Intn(10) == 0 {
				return g.fetchOp(g.hotIDs[r.Intn(len(g.hotIDs))])
			}
			return g.hot[zipf.Uint64()]
		}
	case wlIngestDurable:
		return func() op { j++; return g.ingestOp(g.sz.Docs + j*clients + c) }
	case wlMixedSharded:
		return g.mixedStream(r, g.sz.Docs+c, clients)
	}
	panic("unknown workload " + wl)
}

// mixedStream repeats the 10-operation cycle: ingest, ranked (scoped
// to the owner just written, so it is routed to the shard whose text
// index that write made stale), then searches and queries from the hot
// set.
func (g *opGen) mixedStream(r *rand.Rand, docBase, docStride int) func() op {
	searches := g.sz.MixedQueries * 3 / 4
	zs := rand.NewZipf(r, 1.1, 1, uint64(searches-1))
	zq := rand.NewZipf(r, 1.1, 1, uint64(g.sz.MixedQueries-searches-1))
	cycle := [10]opKind{opIngest, opRanked, opSearch, opSearch, opSearch, opQuery, opSearch, opSearch, opQuery, opSearch}
	j := -1
	return func() op {
		j++
		doc := docBase + j/10*docStride
		switch cycle[j%10] {
		case opIngest:
			return g.ingestOp(doc)
		case opRanked:
			q := g.gen.RankedQuery(doc)
			q.Owner = ownerName(doc)
			return g.queryOp(opRanked, q, 10, -1)
		case opSearch:
			return g.mixed[zs.Uint64()]
		default:
			return g.mixed[searches+int(zq.Uint64())]
		}
	}
}

// warmup is the untimed sequence sent before measuring: it fills
// connections, lazily built state and, where the workload has a hot
// set that fits the caches, every cache layer.
func (g *opGen) warmup(wl string) []op {
	var ops []op
	switch wl {
	case wlFig4Cold:
		for i := 0; i < g.sz.Warmup; i++ {
			ops = append(ops, g.fig4(1<<30+i))
		}
	case wlSearchHot:
		ops = append(ops, g.hot...)
		for _, d := range g.hotIDs {
			ops = append(ops, g.fetchOp(d))
		}
	case wlIngestDurable:
		for i := 0; i < g.sz.WarmIngests; i++ {
			ops = append(ops, g.ingestOp(g.sz.Docs+warmDocBase+i))
		}
	case wlMixedSharded:
		// Writes keep invalidating the caches, so filling them first
		// would measure a state the workload never stays in.
		next := g.mixedStream(rand.New(rand.NewSource(g.seed*13+3)), g.sz.Docs+warmDocBase, 1)
		for i := 0; i < g.sz.Warmup; i++ {
			ops = append(ops, next())
		}
	}
	return ops
}

// streamHash digests the first n requests of both clients' sequences
// as the server would receive them.
func (g *opGen) streamHash(wl string, n int) uint64 {
	h := fnv.New64a()
	ids := make([]int64, g.sz.Docs)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	for c := 0; c < clients; c++ {
		next := g.stream(wl, c)
		for i := 0; i < n; i++ {
			o := next()
			g.materialize(&o, ids)
			fmt.Fprintf(h, "%s %s\n%s\n", o.method, o.path, o.body)
		}
	}
	return h.Sum64()
}

// dumpQueryLog writes the first n query-carrying requests of a
// workload's interleaved sequence as a workload.WriteQueryLog
// JSON-lines file, replayable with workload.ReadQueryLog.
func (g *opGen) dumpQueryLog(w io.Writer, wl string, n int) error {
	var qs []*catalog.Query
	nexts := make([]func() op, clients)
	for c := range nexts {
		nexts[c] = g.stream(wl, c)
	}
	for i := 0; i < n; i++ {
		if o := nexts[i%clients](); o.q != nil {
			qs = append(qs, o.q)
		}
	}
	return workload.WriteQueryLog(w, qs)
}
