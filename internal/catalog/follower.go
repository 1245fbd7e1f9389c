package catalog

import (
	"errors"
	"fmt"
	"io"

	"github.com/gridmeta/hybridcat/internal/wal"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Follower mode: a read-only replica catalog whose state advances only
// by replaying the primary's write-ahead log records (shipped over the
// replication stream; see internal/replica) through the apply functions
// the primary's API called, so a replica is "a catalog that ingested the
// same documents": every applied record leaves it at a state the
// primary's log contains, published with one pointer swap. A local
// mutation is refused before it shreds or registers anything.

// ErrReadOnlyReplica marks a mutation attempted on a follower catalog.
// The service maps it to 503 so clients retry against the primary.
var ErrReadOnlyReplica = errors.New("catalog: read-only replica")

// OpenFollower builds an empty follower catalog: read-only, fed by
// ApplyWAL from the primary's record sequence 1.
func OpenFollower(schema *xmlschema.Schema, opts Options) (*Catalog, error) {
	c, err := Open(schema, opts)
	if err != nil {
		return nil, err
	}
	c.follower = true
	return c, nil
}

// LoadFollower bootstraps a follower from a primary snapshot (see
// ReplicationSnapshot) and returns it with its replication cursor set
// to the snapshot's watermark: ApplyWAL continues from the next record.
func LoadFollower(schema *xmlschema.Schema, opts Options, r io.Reader) (*Catalog, error) {
	c, seq, err := loadSnapshot(schema, opts, r, -1)
	if err != nil {
		return nil, err
	}
	c.follower = true
	c.applied = seq
	return c, nil
}

// AppliedSeq returns the follower's replication cursor: the sequence of
// the last primary log record whose effects are visible to readers.
func (c *Catalog) AppliedSeq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.applied
}

// ApplyWAL replays a run of primary log records into the follower, in
// one relstore transaction: readers see the whole run or none of it,
// and a failed apply (decode error, replay divergence) commits nothing,
// its adopted definitions included, and leaves the cursor unmoved so
// the tailer can retry or re-bootstrap. Records at or
// below the cursor are skipped — re-delivery after a torn stream is the
// normal case, not an error — and a record beyond cursor+1 fails: the
// stream has a hole and the tailer must resume from the cursor.
func (c *Catalog) ApplyWAL(recs []wal.Record) error {
	if !c.follower {
		return fmt.Errorf("catalog: ApplyWAL on a non-follower catalog")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := c.applied
	err := c.withTx(func() error {
		for _, rec := range recs {
			if rec.Seq <= next {
				continue
			}
			if rec.Seq != next+1 {
				return fmt.Errorf("catalog: replication hole: record %d after %d", rec.Seq, next)
			}
			if _, err := c.replayRecord(rec.Payload); err != nil {
				return fmt.Errorf("catalog: record %d: %w", rec.Seq, err)
			}
			next = rec.Seq
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.applied = next
	return nil
}
