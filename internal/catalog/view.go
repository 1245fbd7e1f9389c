package catalog

import (
	"context"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// view is one read operation's pinned state: an immutable relstore
// snapshot plus a registry snapshot, taken together at the operation's
// start. Everything the Figure-4 pipeline and the §5 response builder
// touch resolves through the view, so a whole query — probes, rollups,
// intersection, response construction — observes exactly one epoch and
// runs without any lock, concurrently with writers publishing later
// versions.
//
// Pin order is database first, then registry. Registration (live or
// replayed) mutates the registry before the version whose rows
// reference the definition publishes, so for any database epoch the
// registry holds at least the definitions that epoch's rows reference;
// pinning the registry second can only see *more* definitions, and the
// registry is grow-only, so resolution is never missing a definition
// the pinned data uses. The reverse order could pin a registry from
// before a definition the data snapshot already references.
type view struct {
	c    *Catalog
	snap *relstore.Snapshot
	reg  *core.RegSnap
	// ctx, when non-nil, carries the caller's cancellation: the pipeline
	// checks it between stages so an abandoned request stops early
	// instead of finishing work nobody will read.
	ctx context.Context
}

// pinView pins the current database version and registry version.
func (c *Catalog) pinView() *view {
	v := &view{c: c, snap: c.DB.Snapshot(), reg: c.Reg.Snapshot()}
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
