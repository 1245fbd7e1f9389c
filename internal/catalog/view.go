package catalog

import (
	"context"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// view is one read operation's pinned state: an immutable relstore
// snapshot, taken at the operation's start, and the definitions that
// version carries. Everything the Figure-4 pipeline and the §5 response
// builder touch resolves through the view, so a whole query — probes,
// rollups, intersection, response construction — observes exactly one
// epoch and runs without any lock, concurrently with writers publishing
// later versions.
type view struct {
	c    *Catalog
	snap *relstore.Snapshot
	defs *core.Defs
	// ctx, when non-nil, carries the caller's cancellation: the pipeline
	// checks it between stages so an abandoned request stops early
	// instead of finishing work nobody will read.
	ctx context.Context
}

// pinView pins the current database version.
func (c *Catalog) pinView() *view {
	snap := c.DB.Snapshot()
	v := &view{c: c, snap: snap, defs: snap.Value().(*core.Defs)}
	c.obsv.snapshotPins.Inc()
	return v
}

// pinViewCtx is pinView attaching a cancellation context. Background
// (and nil) contexts never cancel, so they are not stored at all and
// ctxErr stays a nil check on the hot path.
func (c *Catalog) pinViewCtx(ctx context.Context) *view {
	v := c.pinView()
	if ctx != nil && ctx != context.Background() {
		v.ctx = ctx
	}
	return v
}

// ctxErr reports the pinned context's cancellation status; views pinned
// without a context never cancel.
func (v *view) ctxErr() error {
	if v.ctx == nil {
		return nil
	}
	return v.ctx.Err()
}

// tab returns the pinned handle for an internal table.
func (v *view) tab(name string) *relstore.Table {
	return v.snap.MustTable(name)
}
