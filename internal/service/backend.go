package service

import (
	"context"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/obs"
)

// Backend is the catalog contract the shared handlers are written
// against: ingest a schema-based document, answer a Figure-4 attribute
// query, rebuild the §5 response. One catalog (through catalogBackend)
// and a sharded *shard.Cluster both satisfy it, so every shared endpoint
// has one handler. Object IDs are whatever the backend hands out —
// catalog-local on one catalog, global on a cluster. fanout is the
// request's ?fanout=1: a cluster answers from every shard instead of
// routing by query owner; one catalog has nothing to fan out to and
// ignores it.
type Backend interface {
	// IngestXML parses, shreds and stores one document for owner,
	// returning its object ID once the write is as durable as the
	// backend makes it.
	IngestXML(owner, xml string) (int64, error)
	// EvaluateContext runs the Figure-4 pipeline and returns matching
	// object IDs in ascending order, aborting at the next stage boundary
	// once ctx is cancelled.
	EvaluateContext(ctx context.Context, q *catalog.Query, fanout bool) ([]int64, error)
	// SearchRanked answers a query carrying a rank clause: BM25 top-k
	// composed with the structural criteria, rebuilt documents in
	// descending score order.
	SearchRanked(ctx context.Context, q *catalog.Query, fanout bool) ([]catalog.RankedResponse, error)
	// BuildResponse rebuilds the tagged XML for the given IDs, in the
	// given order, skipping IDs that no longer exist.
	BuildResponse(ids []int64) ([]catalog.Response, error)
	// Objects lists every object in ascending ID order.
	Objects() []catalog.ObjectInfo
	// RegisterAttr registers a dynamic attribute definition.
	RegisterAttr(name, source string, parentID int64, owner string) (*core.AttrDef, error)
	// RegisterElem registers a dynamic element definition.
	RegisterElem(name, source string, attrID int64, dt core.DataType, owner string) (*core.ElemDef, error)
	// SetPublished flips an object's published flag.
	SetPublished(id int64, published bool) error
	// Metrics is the registry /metrics serves and route() instruments
	// into; nil turns both off.
	Metrics() *obs.Registry
	// Wedged is non-nil once the durability layer refuses mutations.
	Wedged() error
}

// catalogBackend adapts one catalog to Backend. The embedded catalog
// already has every other method with the interface's signature; only
// the two reads that take the fanout flag need a wrapper to drop it.
type catalogBackend struct{ *catalog.Catalog }

// EvaluateContext ignores fanout: one catalog is the whole corpus.
func (b catalogBackend) EvaluateContext(ctx context.Context, q *catalog.Query, _ bool) ([]int64, error) {
	return b.Catalog.EvaluateContext(ctx, q)
}

// SearchRanked ignores fanout: local statistics are global statistics.
func (b catalogBackend) SearchRanked(ctx context.Context, q *catalog.Query, _ bool) ([]catalog.RankedResponse, error) {
	return b.Catalog.SearchRanked(ctx, q)
}

// backend resolves the Backend for one request: the cluster on a
// sharded server, otherwise an adapter over cat() — resolved per
// request because a replica's tailer may swap the follower catalog.
func (s *Server) backend() Backend {
	if s.cluster != nil {
		return s.cluster
	}
	return catalogBackend{s.cat()}
}
