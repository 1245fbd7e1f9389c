package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// Router semantics. Writes are single-shard: a document belongs to its
// owner's shard, so ingest, delete, and publish go through exactly one
// catalog's durable commit path and the acknowledged-write guarantees are
// the single-node ones. Reads split by query owner:
//
//   - Owner != "": routed to the owner's shard. This is exact for the
//     owner's own objects (all on that shard, §1 privacy default:
//     ingest is unpublished) and for published objects co-located
//     there. Published objects of owners hashed elsewhere require the
//     fan-out read — EvaluateAll — which unions per-shard
//     results under each shard's own visibility filter and therefore
//     reproduces single-catalog semantics exactly.
//   - Owner == "" (superuser): fan out to every shard, merge.
//
// Merged result sets are in ascending global-ID order: per-shard
// Evaluate returns ascending local IDs, the gid encoding preserves that
// order within a shard, and a k-way merge interleaves the shards. The
// order is deterministic for a given cluster, so offset/limit paging
// composes exactly.

// Ingest routes a parsed document to its owner's shard and returns the
// global object ID.
func (cl *Cluster) Ingest(owner string, doc *xmldoc.Node) (int64, error) {
	idx := cl.ShardFor(owner)
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	local, err := h.cat.Ingest(owner, doc)
	if err != nil {
		return 0, err
	}
	cl.countRoute(idx)
	return cl.GlobalID(idx, local), nil
}

// IngestXML parses and routes an XML document to its owner's shard.
func (cl *Cluster) IngestXML(owner, xml string) (int64, error) {
	idx := cl.ShardFor(owner)
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	local, err := h.cat.IngestXML(owner, xml)
	if err != nil {
		return 0, err
	}
	cl.countRoute(idx)
	return cl.GlobalID(idx, local), nil
}

// Delete removes the object with the given global ID, reporting whether
// it existed.
func (cl *Cluster) Delete(gid int64) (bool, error) {
	idx, local, err := cl.SplitID(gid)
	if err != nil {
		return false, err
	}
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	cl.countRoute(idx)
	return h.cat.Delete(local)
}

// SetPublished publishes or unpublishes the object with the given
// global ID.
func (cl *Cluster) SetPublished(gid int64, published bool) error {
	idx, local, err := cl.SplitID(gid)
	if err != nil {
		return err
	}
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	cl.countRoute(idx)
	return h.cat.SetPublished(local, published)
}

// RegisterAttr registers a dynamic attribute definition on every shard
// (definitions are global: a fan-out query must resolve the same names
// on each instance). Shards assign identical definition IDs because
// they see registrations in the same order; the first shard's
// definition is returned. A mid-broadcast failure leaves earlier shards
// registered — re-issuing the registration is the recovery (it is
// idempotent per shard).
func (cl *Cluster) RegisterAttr(name, source string, parentID int64, owner string) (*core.AttrDef, error) {
	var first *core.AttrDef
	for i := 0; i < cl.n; i++ {
		h := cl.writeHandle(i)
		def, err := h.cat.RegisterAttr(name, source, parentID, owner)
		h.gate.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if first == nil {
			first = def
		}
	}
	return first, nil
}

// RegisterElem registers a dynamic element definition on every shard;
// see RegisterAttr for the broadcast semantics.
func (cl *Cluster) RegisterElem(name, source string, attrID int64, dt core.DataType, owner string) (*core.ElemDef, error) {
	var first *core.ElemDef
	for i := 0; i < cl.n; i++ {
		h := cl.writeHandle(i)
		def, err := h.cat.RegisterElem(name, source, attrID, dt, owner)
		h.gate.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if first == nil {
			first = def
		}
	}
	return first, nil
}

// Evaluate runs the Figure-4 set pipeline. An owner-scoped query routes
// to the owner's shard; a superuser query fans out and merges. Results
// are ascending global IDs.
func (cl *Cluster) Evaluate(q *catalog.Query) ([]int64, error) {
	return cl.EvaluateContext(context.Background(), q, false)
}

// EvaluateAll fans the query out to every shard and merges, regardless
// of owner. For an owner-scoped query this reproduces single-catalog
// visibility exactly — the owner's objects plus ALL published objects,
// wherever their owners hash — at the cost of touching every shard.
func (cl *Cluster) EvaluateAll(q *catalog.Query) ([]int64, error) {
	return cl.EvaluateContext(context.Background(), q, true)
}

// EvaluateContext is Evaluate (or, with fanout, EvaluateAll) honoring
// ctx: every shard's pipeline aborts at its next stage boundary once
// ctx is cancelled, and a scatter is not started under a cancelled ctx.
func (cl *Cluster) EvaluateContext(ctx context.Context, q *catalog.Query, fanout bool) ([]int64, error) {
	if q.Owner != "" && !fanout {
		idx := cl.ShardFor(q.Owner)
		cl.countRoute(idx)
		locals, err := cl.handle(idx).cat.EvaluateContext(ctx, q)
		if err != nil {
			return nil, err
		}
		return cl.globalize(idx, locals), nil
	}
	cl.fanout.Inc()
	perShard, err := scatter(ctx, cl.table.Load().shards, func(h *shardHandle) ([]int64, error) {
		return h.cat.EvaluateContext(ctx, q)
	})
	if err != nil {
		return nil, err
	}
	return cl.mergeIDs(perShard), nil
}

// scatter runs fn concurrently on every shard unless ctx is already
// cancelled. A definition unknown on one shard yields an empty
// contribution; the scatter fails only if every shard refuses the query
// (the definition does not exist anywhere) or a shard fails for any
// other reason, a cancelled ctx included.
func scatter[T any](ctx context.Context, shards []*shardHandle, fn func(*shardHandle) (T, error)) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	perShard := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, h := range shards {
		wg.Add(1)
		go func(i int, h *shardHandle) {
			defer wg.Done()
			perShard[i], errs[i] = fn(h)
		}(i, h)
	}
	wg.Wait()
	unknown := 0
	var lastUnknown error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, catalog.ErrUnknownDefinition) {
			unknown++
			lastUnknown = err
			var zero T
			perShard[i] = zero
			continue
		}
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	if unknown == len(errs) {
		return nil, lastUnknown
	}
	return perShard, nil
}

// globalize maps one shard's ascending local IDs to global IDs
// (ascending, by construction of the encoding).
func (cl *Cluster) globalize(idx int, locals []int64) []int64 {
	out := make([]int64, len(locals))
	for i, id := range locals {
		out[i] = cl.GlobalID(idx, id)
	}
	return out
}

// mergeIDs k-way merges per-shard ascending local ID lists into one
// ascending global ID list.
func (cl *Cluster) mergeIDs(perShard [][]int64) []int64 {
	total := 0
	for _, ids := range perShard {
		total += len(ids)
	}
	out := make([]int64, 0, total)
	heads := make([]int, len(perShard))
	for len(out) < total {
		best, bestGid := -1, int64(0)
		for i, ids := range perShard {
			if heads[i] >= len(ids) {
				continue
			}
			gid := cl.GlobalID(i, ids[heads[i]])
			if best < 0 || gid < bestGid {
				best, bestGid = i, gid
			}
		}
		out = append(out, bestGid)
		heads[best]++
	}
	return out
}

// BuildResponse reconstructs the response documents for the given
// global IDs, preserving their order. Unknown IDs are skipped, matching
// the single-catalog contract.
func (cl *Cluster) BuildResponse(gids []int64) ([]catalog.Response, error) {
	// Group the page by shard, keeping each shard's locals in request
	// order, then reassemble in the caller's order. An ID SplitID
	// refuses names no object on any shard: skip it.
	byShard := make(map[int][]int64)
	for _, gid := range gids {
		if idx, local, err := cl.SplitID(gid); err == nil {
			byShard[idx] = append(byShard[idx], local)
		}
	}
	built := make(map[int64]catalog.Response, len(gids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, cl.n)
	for idx, locals := range byShard {
		wg.Add(1)
		go func(idx int, locals []int64) {
			defer wg.Done()
			resp, err := cl.handle(idx).cat.BuildResponse(locals)
			if err != nil {
				errs[idx] = fmt.Errorf("shard %d: %w", idx, err)
				return
			}
			mu.Lock()
			for _, r := range resp {
				// Only the ID changes: the response keeps its tie to
				// the shard's cache entry and that entry's JSON form.
				r.ObjectID = cl.GlobalID(idx, r.ObjectID)
				built[r.ObjectID] = r
			}
			mu.Unlock()
		}(idx, locals)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]catalog.Response, 0, len(built))
	for _, gid := range gids {
		if r, ok := built[gid]; ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// FetchDocument reconstructs one object's full document by global ID.
func (cl *Cluster) FetchDocument(gid int64) (*xmldoc.Node, error) {
	idx, local, err := cl.SplitID(gid)
	if err != nil {
		return nil, err
	}
	cl.countRoute(idx)
	return cl.handle(idx).cat.FetchDocument(local)
}

// Objects lists every shard's objects merged in ascending global-ID
// order, with IDs rewritten to global.
func (cl *Cluster) Objects() []catalog.ObjectInfo {
	t := cl.table.Load()
	var out []catalog.ObjectInfo
	for i, h := range t.shards {
		for _, o := range h.cat.Objects() {
			o.ID = cl.GlobalID(i, o.ID)
			out = append(out, o)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ObjectCount returns the total object count across shards.
func (cl *Cluster) ObjectCount() int {
	n := 0
	for _, h := range cl.table.Load().shards {
		n += h.cat.ObjectCount()
	}
	return n
}
