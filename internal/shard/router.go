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
	return cl.ingest(owner, func(c *catalog.Catalog) (int64, error) { return c.Ingest(owner, doc) })
}

// IngestXML parses and routes an XML document to its owner's shard.
func (cl *Cluster) IngestXML(owner, xml string) (int64, error) {
	return cl.ingest(owner, func(c *catalog.Catalog) (int64, error) { return c.IngestXML(owner, xml) })
}

// ingest runs one ingest on the owner's shard under its write gate and
// returns the new object's global ID.
func (cl *Cluster) ingest(owner string, fn func(*catalog.Catalog) (int64, error)) (int64, error) {
	idx := cl.ShardFor(owner)
	h := cl.writeHandle(idx)
	defer h.gate.RUnlock()
	local, err := fn(h.cat)
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
// on each instance). The first shard registers it, and every later
// shard adopts the first shard's definition at the first shard's ID, as
// log replay adopts a logged one, so no shard allocates an ID of its
// own; the first shard's definition is returned. A failed registration
// leaves its shard without the definition, so a mid-broadcast failure
// leaves only the earlier shards registered, and re-issuing the
// broadcast is the recovery: a shard that already holds the identical
// definition at the first shard's ID counts as registered, and a shard
// holding another definition at that ID, or this one at another ID,
// refuses.
func (cl *Cluster) RegisterAttr(name, source string, parentID int64, owner string) (*core.AttrDef, error) {
	return broadcast(cl, func(c *catalog.Catalog) (*core.AttrDef, error) {
		if d := c.Reg.Defs().LookupAttr(name, source, parentID, owner); d != nil && d.Owner == owner {
			return d, nil
		}
		return c.RegisterAttr(name, source, parentID, owner)
	}, func(c *catalog.Catalog, first *core.AttrDef) error {
		if d := c.Reg.Defs().AttrByID(first.ID); d != nil && *d == *first {
			return nil
		}
		return c.AdoptAttr(*first)
	})
}

// RegisterElem registers a dynamic element definition on every shard;
// see RegisterAttr for the broadcast semantics. An identical element
// also has the same type.
func (cl *Cluster) RegisterElem(name, source string, attrID int64, dt core.DataType, owner string) (*core.ElemDef, error) {
	return broadcast(cl, func(c *catalog.Catalog) (*core.ElemDef, error) {
		if d := c.Reg.Defs().LookupElem(name, source, attrID, owner); d != nil && d.Owner == owner && d.Type == dt {
			return d, nil
		}
		return c.RegisterElem(name, source, attrID, dt, owner)
	}, func(c *catalog.Catalog, first *core.ElemDef) error {
		if d := c.Reg.Defs().ElemByID(first.ID); d != nil && *d == *first {
			return nil
		}
		return c.AdoptElem(*first)
	})
}

// broadcast runs register on the first shard and adopt, with the first
// shard's definition, on every later one, in order and each under its
// shard's write gate, and returns the first shard's definition.
func broadcast[D any](cl *Cluster, register func(*catalog.Catalog) (*D, error), adopt func(*catalog.Catalog, *D) error) (*D, error) {
	var first *D
	for i := 0; i < cl.n; i++ {
		h := cl.writeHandle(i)
		var err error
		if first == nil {
			first, err = register(h.cat)
		} else {
			err = adopt(h.cat, first)
		}
		h.gate.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
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
