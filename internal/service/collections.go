package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/ontology"
)

// Ontology, when set, enables query expansion: requests with ?expand=1
// widen keyword equality predicates through the term hierarchy.
func (s *Server) SetOntology(o *ontology.Ontology) { s.ont = o }

// registerCollectionRoutes adds the aggregation/context endpoints:
//
//	POST   /collections                      {"name","owner","parent_id"} -> {"id"}
//	GET    /collections                      -> [{"id","name","owner","parent_id"}]
//	PUT    /collections/{id}/objects/{oid}   add membership
//	DELETE /collections/{id}/objects/{oid}   remove membership
//	GET    /collections/{id}/objects         -> {"ids": [...]} (subtree)
//	POST   /collections/containing           query JSON -> {"collection_ids": [...]}
//
// and extends POST /query with ?collection=N (containment scope) and
// ?expand=1 (ontology expansion).
func (s *Server) registerCollectionRoutes(mux *http.ServeMux) {
	s.route(mux, "POST /collections", s.handleCreateCollection)
	s.route(mux, "GET /collections", s.handleListCollections)
	s.route(mux, "PUT /collections/{id}/objects/{oid}", s.handleMembership(true))
	s.route(mux, "DELETE /collections/{id}/objects/{oid}", s.handleMembership(false))
	s.route(mux, "GET /collections/{id}/objects", s.handleCollectionObjects)
	s.route(mux, "POST /collections/containing", s.handleContaining)
}

type createCollectionReq struct {
	Name     string `json:"name"`
	Owner    string `json:"owner"`
	ParentID int64  `json:"parent_id"`
}

func (s *Server) handleCreateCollection(w http.ResponseWriter, r *http.Request) {
	var req createCollectionReq
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeErr(w, bodyStatus(err), err)
		return
	}
	id, err := s.cat().CreateCollection(req.Name, req.Owner, req.ParentID)
	if err != nil {
		writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
}

func (s *Server) handleListCollections(w http.ResponseWriter, _ *http.Request) {
	type coll struct {
		ID       int64  `json:"id"`
		Name     string `json:"name"`
		Owner    string `json:"owner"`
		ParentID int64  `json:"parent_id"`
	}
	infos := s.cat().Collections()
	out := make([]coll, 0, len(infos))
	for _, c := range infos {
		out = append(out, coll{c.ID, c.Name, c.Owner, c.ParentID})
	}
	writeJSON(w, http.StatusOK, out)
}

func pathID(r *http.Request, name string) (int64, error) {
	id, err := strconv.ParseInt(r.PathValue(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("service: bad %s: %w", name, err)
	}
	return id, nil
}

func (s *Server) handleMembership(add bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cid, err := pathID(r, "id")
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		oid, err := pathID(r, "oid")
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if add {
			if err := s.cat().AddToCollection(cid, oid); err != nil {
				writeErr(w, mutationStatus(err, http.StatusUnprocessableEntity), err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
			return
		}
		removed, err := s.cat().RemoveFromCollection(cid, oid)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"removed": removed})
	}
}

func (s *Server) handleCollectionObjects(w http.ResponseWriter, r *http.Request) {
	cid, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ids, err := s.cat().CollectionObjects(cid)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if ids == nil {
		ids = []int64{}
	}
	writeJSON(w, http.StatusOK, map[string][]int64{"ids": ids})
}

func (s *Server) handleContaining(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readQuery(w, r)
	if !ok {
		return
	}
	ids, err := s.cat().CollectionsContaining(s.maybeExpand(r.URL.Query(), q))
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	if ids == nil {
		ids = []int64{}
	}
	writeJSON(w, http.StatusOK, map[string][]int64{"collection_ids": ids})
}

// maybeExpand applies ontology expansion when requested and configured.
func (s *Server) maybeExpand(qv url.Values, q *catalog.Query) *catalog.Query {
	if s.ont != nil && qv.Get("expand") == "1" {
		return ontology.Expand(s.ont, q)
	}
	return q
}

// errBadScope marks a ?collection= scope the server cannot apply.
var errBadScope = errors.New("service: bad collection")

// evaluateScoped runs the query on the backend, or scoped to
// ?collection=N where the server has collections (a cluster has none).
// ctx is the request's: when the client disconnects, the pipeline
// aborts at its next stage boundary.
func (s *Server) evaluateScoped(ctx context.Context, qv url.Values, q *catalog.Query) ([]int64, error) {
	if cs := qv.Get("collection"); cs != "" {
		if s.cluster != nil {
			return nil, fmt.Errorf("%w: a sharded server has no collections", errBadScope)
		}
		cid, err := strconv.ParseInt(cs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadScope, err)
		}
		return s.cat().EvaluateInContextCtx(ctx, cid, q)
	}
	return s.backend().EvaluateContext(ctx, q, fanout(qv))
}
