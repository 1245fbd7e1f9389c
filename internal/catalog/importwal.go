package catalog

import (
	"fmt"

	"github.com/gridmeta/hybridcat/internal/wal"
)

// ImportWAL applies another catalog's log records to this catalog as
// ONE local durable mutation — the rebalance catch-up path: a shard
// being moved bootstraps its new instance from a snapshot, then imports
// the source's WAL tail until the two are identical. Unlike ApplyWAL
// (the follower path), the records' sequence numbers belong to the
// SOURCE's log and are not tracked here: each op runs through its apply
// function inside mutate, which journals it into this catalog's own
// record, so the import is exactly as durable as any local write. The
// source's IDs advance the allocators inside the build, so no later
// build hands one out. The caller owns cursor arithmetic and must pass
// each source record at most once, in order.
func (c *Catalog) ImportWAL(recs []wal.Record) error {
	return c.mutate(func() error {
		for _, rec := range recs {
			if _, err := c.replayRecord(rec.Payload); err != nil {
				return fmt.Errorf("catalog: import record %d: %w", rec.Seq, err)
			}
		}
		return nil
	})
}
