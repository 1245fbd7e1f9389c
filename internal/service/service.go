// Package service exposes a catalog as an HTTP/XML grid service: ingest
// schema-based metadata documents, register dynamic definitions, run
// attribute queries (JSON wire format), and fetch reconstructed XML.
// It stands in for the grid-service transport of the myLEAD server.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/shard"
)

// Server serves one Backend over HTTP: a single catalog (New), a read
// replica's follower catalog (New plus Replica), or a sharded cluster
// (NewSharded). The shared endpoints have one handler each, written
// against Backend; only the topology-specific routes differ.
type Server struct {
	Cat *catalog.Catalog
	ont *ontology.Ontology
	// Replica, when non-nil, marks this server a read replica: handlers
	// serve from Replica.Catalog(), stamp X-Staleness-Seq, and refuse
	// reads once the replica lags past MaxLag (see replication.go).
	Replica ReplicaSource
	// MaxLag is the replica staleness bound in log records; 0 disables
	// the lag check (responses still carry X-Staleness-Seq).
	MaxLag uint64
	// cluster, when non-nil, is the backend (see NewSharded); Cat and
	// Replica are then unused.
	cluster *shard.Cluster
}

// New wraps a catalog.
func New(cat *catalog.Catalog) *Server { return &Server{Cat: cat} }

// Handler returns the service mux. On every topology:
//
//	POST /ingest?owner=U        XML document body -> {"id": N}
//	POST /query                 query JSON -> {"ids": [...]}
//	POST /search                query JSON -> {"total", "results": [{"id", "xml"}]}
//	GET  /objects               -> [{"id","name","owner","created"}]
//	GET  /fetch?id=N            -> XML document
//	POST /define/attr           {"name","source","parent_id","owner"} -> definition
//	POST /define/elem           {"name","source","attr_id","type","owner"} -> definition
//	POST /objects/{id}/publish  and /unpublish
//	GET  /metrics               -> metrics registry (Prometheus text; ?format=json)
//	GET  /healthz               -> readiness: ok | wedged | replica-lagging
//
// /query and /search take ?expand=1 (ontology expansion, when one is
// set) and ?fanout=1 (handed to the backend: a cluster reads every shard
// instead of routing by query owner, one catalog ignores it); /search
// pages with ?offset and ?limit. On a single catalog or replica, also:
//
//	GET  /schema                -> text ordering table (Figure 2)
//	GET  /defs                  -> dynamic definitions (DefJSON)
//	GET  /wal/stream?from=N     -> replication stream (raw WAL frames)
//	GET  /wal/snapshot          -> replica bootstrap snapshot
//	GET  /debug/tracez          -> slowest query traces with stage timings
//	GET  /debug/cachez          -> read-cache counters + generations
//	GET  /debug/durabilityz     -> WAL/checkpoint/recovery counters
//
// plus the /collections routes and the ?collection=N scope (see
// collections.go). On a cluster, instead (see shard.go):
//
//	GET  /shardz                -> per-shard dir/objects/epoch/watermark
//	POST /rebalance?shard=N&dir=D  move shard N to directory D, live
//
// When the backend has a metrics registry, every route is additionally
// wrapped with per-endpoint request counters and latency histograms
// (see instrument in debug.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /ingest", s.handleIngest)
	s.route(mux, "POST /query", s.handleQuery)
	s.route(mux, "POST /search", s.handleSearch)
	s.route(mux, "GET /objects", s.handleObjects)
	s.route(mux, "GET /fetch", s.handleFetch)
	s.route(mux, "POST /define/attr", s.handleDefineAttr)
	s.route(mux, "POST /define/elem", s.handleDefineElem)
	s.route(mux, "POST /objects/{id}/publish", s.handlePublish(true))
	s.route(mux, "POST /objects/{id}/unpublish", s.handlePublish(false))
	// metrics and healthz sit outside the staleness middleware: a
	// lagging replica must still answer health checks.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cluster != nil {
		s.registerClusterRoutes(mux)
	} else {
		s.registerCatalogRoutes(mux)
	}
	return mux
}

// registerCatalogRoutes adds what only a single catalog (or a replica's
// follower) serves: schema and definition dumps, the replication
// endpoints (one log to stream; a cluster replicates per shard
// directory instead), the per-catalog debug snapshots, and collections.
func (s *Server) registerCatalogRoutes(mux *http.ServeMux) {
	s.route(mux, "GET /schema", s.handleSchema)
	s.route(mux, "GET /defs", s.handleDefs)
	s.route(mux, "GET /wal/stream", s.handleWALStream)
	s.route(mux, "GET /wal/snapshot", s.handleWALSnapshot)
	mux.HandleFunc("GET /debug/tracez", debugHandler(s.handleTracez))
	mux.HandleFunc("GET /debug/cachez", debugHandler(func(*http.Request) (any, error) {
		return s.cat().CacheStats(), nil
	}))
	mux.HandleFunc("GET /debug/durabilityz", debugHandler(func(*http.Request) (any, error) {
		return s.cat().DurabilityStats(), nil
	}))
	s.registerCollectionRoutes(mux)
}

// handlePublish flips an object's published flag (§1 privacy: queries
// from other users only see published objects).
func (s *Server) handlePublish(published bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.backend().SetPublished(id, published); err != nil {
			writeErr(w, mutationStatus(err, http.StatusNotFound), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"published": published})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Responses embed reconstructed XML documents; the default HTML-safe
	// escaping would mangle every angle bracket into its unicode-escape
	// form, so turn it off.
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Request-body ceilings: an ingest document may be large; queries and
// definition requests are small. Oversized bodies get 413 instead of a
// silent truncation.
const (
	maxIngestBody = 16 << 20
	maxJSONBody   = 1 << 20
)

// bodyStatus maps a body-read error to a status: hitting the
// MaxBytesReader ceiling is 413, everything else 400.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// mutationStatus maps a failed catalog mutation to a status: a
// durability failure (the write-ahead record could not reach stable
// storage; state was rolled back) is a server-side 500; a mutation on a
// read-only replica is 503 so the client retries against the primary;
// anything else keeps the handler's validation status.
func mutationStatus(err error, fallback int) int {
	if errors.Is(err, catalog.ErrDurability) {
		return http.StatusInternalServerError
	}
	if errors.Is(err, catalog.ErrReadOnlyReplica) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

// queryStatus maps a failed read to a status: a query naming an unknown
// definition or asking for a ?collection scope the server cannot apply
// is the client's 400; anything else is a 500.
func queryStatus(err error) int {
	if errors.Is(err, catalog.ErrUnknownDefinition) || errors.Is(err, errBadScope) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// decodeJSONBody decodes a size-capped JSON request body into v.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err != nil {
		writeErr(w, bodyStatus(err), err)
		return
	}
	id, err := s.backend().IngestXML(r.URL.Query().Get("owner"), string(body))
	if err != nil {
		writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
}

func (s *Server) readQuery(w http.ResponseWriter, r *http.Request) (*catalog.Query, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err != nil {
		writeErr(w, bodyStatus(err), err)
		return nil, false
	}
	q, err := catalog.ParseQueryJSON(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	return q, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readQuery(w, r)
	if !ok {
		return
	}
	if q.Rank != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: ranked queries use POST /search"))
		return
	}
	qv := r.URL.Query()
	ids, err := s.evaluateScoped(r.Context(), qv, s.maybeExpand(qv, q))
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	if ids == nil {
		ids = []int64{}
	}
	writeJSON(w, http.StatusOK, map[string][]int64{"ids": ids})
}

// handleDefs dumps the dynamic definitions in the DefJSON wire format.
func (s *Server) handleDefs(w http.ResponseWriter, _ *http.Request) {
	data, err := s.cat().DumpDefinitionsJSON()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleSearch runs the query and returns reconstructed documents;
// ?offset and ?limit paginate (a malformed or negative value is a 400,
// not a silently unpaged reply), and the response carries the total
// match count. A structural query pages over the ascending ID order and
// rebuilds only the page; a query with a "rank" clause returns BM25
// top-k results in score order, each carrying its score (see
// handleSearchRanked).
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	pg, err := readPaging(qv)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, ok := s.readQuery(w, r)
	if !ok {
		return
	}
	q = s.maybeExpand(qv, q)
	if q.Rank != nil {
		s.handleSearchRanked(w, r, qv, pg, q)
		return
	}
	ids, err := s.evaluateScoped(r.Context(), qv, q)
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	resp, err := s.backend().BuildResponse(page(pg, ids))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	type result struct {
		ID  int64  `json:"id"`
		XML string `json:"xml"`
	}
	results := make([]result, 0, len(resp))
	for _, rr := range resp {
		results = append(results, result{ID: rr.ObjectID, XML: rr.XML})
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": len(ids), "results": results})
}

// handleSearchRanked is the ranked arm of POST /search: BM25 top-k
// composed with the query's structural criteria, results in descending
// score order with ?offset/?limit slicing the ranked list.
func (s *Server) handleSearchRanked(w http.ResponseWriter, r *http.Request, qv url.Values, pg paging, q *catalog.Query) {
	if qv.Get("collection") != "" {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("service: ranked search does not support ?collection"))
		return
	}
	resp, err := s.backend().SearchRanked(r.Context(), q, fanout(qv))
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	type result struct {
		ID    int64   `json:"id"`
		Score float64 `json:"score"`
		XML   string  `json:"xml"`
	}
	hits := page(pg, resp)
	results := make([]result, 0, len(hits))
	for _, rr := range hits {
		results = append(results, result{ID: rr.ObjectID, Score: rr.Score, XML: rr.XML})
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": len(resp), "results": results})
}

// paging is a request's ?offset and ?limit; a zero limit means no limit.
type paging struct{ offset, limit int }

func readPaging(qv url.Values) (pg paging, err error) {
	if pg.offset, err = queryInt(qv, "offset"); err != nil {
		return pg, err
	}
	pg.limit, err = queryInt(qv, "limit")
	return pg, err
}

// page slices an ordered result list to the request's paging.
func page[T any](pg paging, items []T) []T {
	items = items[min(pg.offset, len(items)):]
	if pg.limit > 0 && pg.limit < len(items) {
		items = items[:pg.limit]
	}
	return items
}

// fanout reports the request's ?fanout=1 flag, which the backend
// receives with every read.
func fanout(qv url.Values) bool { return qv.Get("fanout") == "1" }

// queryInt reads a non-negative integer query parameter. Absent is 0;
// a malformed or negative value is an error — the caller's 400 — so a
// typo is never mistaken for the default.
func queryInt(qv url.Values, name string) (int, error) {
	v := qv.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("service: bad %s %q: want a non-negative integer", name, v)
	}
	return n, nil
}

func (s *Server) handleObjects(w http.ResponseWriter, _ *http.Request) {
	type obj struct {
		ID      int64  `json:"id"`
		Name    string `json:"name"`
		Owner   string `json:"owner"`
		Created string `json:"created"`
	}
	objs := s.backend().Objects()
	out := make([]obj, 0, len(objs))
	for _, o := range objs {
		out = append(out, obj{o.ID, o.Name, o.Owner, o.Created})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad id: %w", err))
		return
	}
	resp, err := s.backend().BuildResponse([]int64{id})
	if err == nil && len(resp) == 0 {
		err = fmt.Errorf("service: no object %d", id)
	}
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = io.WriteString(w, resp[0].XML)
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, row := range s.cat().Schema.OrderingTable() {
		fmt.Fprintln(w, row)
	}
}

type defineAttrReq struct {
	Name     string `json:"name"`
	Source   string `json:"source"`
	ParentID int64  `json:"parent_id"`
	Owner    string `json:"owner"`
}

func (s *Server) handleDefineAttr(w http.ResponseWriter, r *http.Request) {
	var req defineAttrReq
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeErr(w, bodyStatus(err), err)
		return
	}
	def, err := s.backend().RegisterAttr(req.Name, req.Source, req.ParentID, req.Owner)
	if err != nil {
		writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"attr_id": def.ID})
}

type defineElemReq struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	AttrID int64  `json:"attr_id"`
	Type   string `json:"type"`
	Owner  string `json:"owner"`
}

func (s *Server) handleDefineElem(w http.ResponseWriter, r *http.Request) {
	var req defineElemReq
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeErr(w, bodyStatus(err), err)
		return
	}
	dt, err := core.ParseDataType(req.Type)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	def, err := s.backend().RegisterElem(req.Name, req.Source, req.AttrID, dt, req.Owner)
	if err != nil {
		writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"elem_id": def.ID})
}
