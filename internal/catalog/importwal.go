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
// SOURCE's log and are not tracked here: the replayed row operations
// are captured by the journal hook and re-committed under this
// catalog's own log, so the import is exactly as durable as any local
// write. The caller owns cursor arithmetic and must pass each source
// record at most once, in order.
func (c *Catalog) ImportWAL(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	rp := replayer{c: c}
	err := c.mutate(func() error {
		for _, rec := range recs {
			if _, err := rp.apply(rec); err != nil {
				return fmt.Errorf("catalog: import record %d: %w", rec.Seq, err)
			}
		}
		// The ID allocators live outside the versioned state, so they
		// advance inside the build: no later build can hand out an
		// imported ID, and an aborted import only skips IDs.
		c.advanceIDs(rp.idMarks)
		return nil
	})
	if err != nil || !rp.defTouched {
		return err
	}
	// The registry is rebuilt once the import is durable. The lock keeps
	// builds out, and a transaction on the staging head sees the
	// definition rows of commits still waiting for their fsync too.
	c.mu.Lock()
	defer c.mu.Unlock()
	tx := c.DB.Begin()
	defer tx.Abort()
	c.tx = tx
	defer func() { c.tx = nil }()
	return c.restoreRegistryFromTables()
}
