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
	c.mu.Lock()
	defer c.mu.Unlock()
	rp := replayer{c: c}
	err := c.mutateLocked(func() error {
		for _, rec := range recs {
			if _, err := rp.apply(rec); err != nil {
				return fmt.Errorf("catalog: import record %d: %w", rec.Seq, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return rp.finish()
}
