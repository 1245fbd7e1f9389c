package service

import (
	"errors"
	"net/http"
	"strconv"

	"github.com/gridmeta/hybridcat/internal/shard"
)

// NewSharded wraps a sharded cluster in the same Server, over the same
// shared handlers, as New: object IDs in requests and responses are the
// cluster's global IDs, ingest routes to the owner's shard, and reads
// follow the router's semantics (owner-scoped reads route, superuser
// reads fan out; ?fanout=1 forces the fan-out read, which reproduces
// single-catalog visibility for owner queries over published data).
// Replication endpoints are per shard, not cluster-level — a sharded
// deployment replicates shard directories, not the router — and a
// cluster has no collections, so ?collection=N answers 400.
func NewSharded(cl *shard.Cluster) *Server { return &Server{cluster: cl} }

// registerClusterRoutes adds the routes only a cluster serves.
func (s *Server) registerClusterRoutes(mux *http.ServeMux) {
	s.route(mux, "GET /shardz", s.handleShardz)
	s.route(mux, "POST /rebalance", s.handleRebalance)
}

func (s *Server) handleShardz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.Stats())
}

// handleRebalance moves one shard to a new directory while serving:
// POST /rebalance?shard=N&dir=path. Synchronous — the response reports
// the completed move (or its failure, which leaves the old shard
// serving).
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	idx, err := strconv.Atoi(qv.Get("shard"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("service: ?shard=N required"))
		return
	}
	dir := qv.Get("dir")
	if dir == "" {
		writeErr(w, http.StatusBadRequest, errors.New("service: ?dir=path required"))
		return
	}
	if err := s.cluster.Rebalance(idx, dir); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"shard": idx, "dir": dir, "stats": s.cluster.Stats()})
}
