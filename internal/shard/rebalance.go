package shard

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
)

// Rebalance moves shard idx to newDir while the cluster stays live:
//
//  1. Bootstrap — ship the shard's snapshot container (the replication
//     snapshot, carrying its WAL watermark) atomically into
//     newDir/catalog.wal.snap, and open a fresh durable catalog there;
//     recovery loads the snapshot exactly as it would after a crash.
//  2. Catch up — stream the source's WAL tail (WALSince from the
//     watermark) into the new instance with ImportWAL, while writers
//     keep landing on the source. A checkpoint-induced log gap restarts
//     the bootstrap.
//  3. Drain — take the shard's write gate exclusively. In-flight writes
//     finish and are imported; new writes block (readers never do).
//  4. Flip — rewrite the routing table file via temp + fsync + rename.
//     The rename is the commit point: a crash before it recovers with
//     the old directory serving the shard, a crash after it with the
//     new one — never neither, never both, because the cluster opens
//     only the directories the routing table names.
//  5. Swap the in-memory table, release the gate (blocked writers retry
//     against the new instance via writeHandle's re-check), and retire
//     the source catalog. The old directory is left on disk for the
//     operator to archive or delete once the move is verified.
//
// Global IDs are unaffected: the shard keeps its index, so gid
// assignments survive the move. One rebalance runs at a time.
func (cl *Cluster) Rebalance(idx int, newDir string) error {
	cl.rebMu.Lock()
	defer cl.rebMu.Unlock()
	if idx < 0 || idx >= cl.n {
		return fmt.Errorf("shard: no shard %d (cluster has %d)", idx, cl.n)
	}
	for _, h := range cl.table.Load().shards {
		if h.dir == newDir {
			return fmt.Errorf("shard: %s already serves shard %d", newDir, h.idx)
		}
	}
	src := cl.handle(idx)

	// Bootstrap + catch-up, restarting if a source checkpoint truncates
	// records the new instance still needs.
	const bootstrapAttempts = 3
	var dst *catalog.Catalog
	var cursor uint64
	var err error
	for attempt := 0; ; attempt++ {
		dst, cursor, err = cl.bootstrapShard(src.cat, newDir)
		if err != nil {
			return fmt.Errorf("shard: rebalance bootstrap: %w", err)
		}
		var gap bool
		cursor, gap, err = cl.catchUp(src.cat, dst, cursor)
		if err != nil {
			_ = dst.Close()
			return fmt.Errorf("shard: rebalance catch-up: %w", err)
		}
		if !gap {
			break
		}
		_ = dst.Close()
		if attempt+1 >= bootstrapAttempts {
			return fmt.Errorf("shard: rebalance: log gap persisted across %d bootstraps (checkpointing faster than catch-up)", bootstrapAttempts)
		}
	}

	// Drain: block writers, import the final tail. The gate guarantees
	// quiescence — every acknowledged write is in the source log, and
	// after this import, in the new instance too.
	src.gate.Lock()
	recs, _, gap, err := src.cat.WALSince(cursor)
	if err == nil && gap {
		err = fmt.Errorf("log gap during drain")
	}
	if err == nil {
		err = dst.ImportWAL(recs)
	}
	if err != nil {
		src.gate.Unlock()
		_ = dst.Close()
		return fmt.Errorf("shard: rebalance drain: %w", err)
	}

	// Flip: persist the new routing table (the commit point), then swap
	// the in-memory table.
	old := cl.table.Load()
	shards := make([]*shardHandle, len(old.shards))
	copy(shards, old.shards)
	shards[idx] = &shardHandle{idx: idx, dir: newDir, cat: dst, gate: new(sync.RWMutex)}
	dirs := make([]string, len(shards))
	for i, h := range shards {
		dirs[i] = h.dir
	}
	if err := cl.saveRouting(dirs); err != nil {
		src.gate.Unlock()
		_ = dst.Close()
		return fmt.Errorf("shard: rebalance flip: %w", err)
	}
	cl.table.Store(&routing{shards: shards})
	src.gate.Unlock()
	cl.rebalances.Inc()
	_ = src.cat.Close()
	return nil
}

// bootstrapShard ships src's replication snapshot into newDir and opens
// a fresh durable catalog there, returning it with the snapshot's WAL
// watermark (the catch-up cursor).
func (cl *Cluster) bootstrapShard(src *catalog.Catalog, newDir string) (*catalog.Catalog, uint64, error) {
	walPath := filepath.Join(newDir, walFile)
	snapPath := walPath + ".snap"
	// A retry bootstraps over a previous attempt's files; remove the old
	// WAL so recovery sees only the new snapshot.
	_ = cl.fs.Remove(walPath)
	var watermark uint64
	if _, isOS := cl.fs.(faultio.OS); isOS {
		if err := os.MkdirAll(newDir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	err := faultio.WriteAtomic(cl.fs, snapPath, func(w io.Writer) error {
		var serr error
		watermark, serr = src.ReplicationSnapshot(w)
		return serr
	})
	if err != nil {
		return nil, 0, err
	}
	dst, err := cl.openShardCatalog(newDir)
	if err != nil {
		return nil, 0, err
	}
	return dst, watermark, nil
}

// catchUp imports src's WAL records above cursor into dst until the
// source has nothing more to ship, returning the advanced cursor. gap
// reports that a source checkpoint truncated needed records.
func (cl *Cluster) catchUp(src, dst *catalog.Catalog, cursor uint64) (uint64, bool, error) {
	for {
		recs, _, gap, err := src.WALSince(cursor)
		if err != nil {
			return cursor, false, err
		}
		if gap {
			return cursor, true, nil
		}
		if len(recs) == 0 {
			return cursor, false, nil
		}
		if err := dst.ImportWAL(recs); err != nil {
			return cursor, false, err
		}
		cursor = recs[len(recs)-1].Seq
	}
}
