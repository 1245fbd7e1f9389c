package catalog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/wal"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Durability: every mutating catalog operation runs through mutate,
// which applies fn's row operations to a copy-on-write relstore
// transaction, collects the ops fn's apply functions journaled (see
// record.go), freezes the built version as the staging head (invisible
// to readers, but the base of the next mutation's build), appends the
// ops as ONE write-ahead log record to the log's pending batch, and
// publishes the version with an atomic pointer swap only once the
// record's batch is durable. The journaled commit is therefore build
// version → append WAL → swap pointer: a mutation that fails, or whose
// record cannot be made durable, never becomes visible — there is no
// rollback code to get wrong, and readers never observe a state the log
// does not contain. A multi-op mutation — a whole batch, an import — is
// atomic both on disk and in memory: after a crash it is replayed
// entirely or not at all, and no concurrent reader ever sees it
// half-applied.
//
// The catalog lock covers only the build and the append: a writer
// releases it before flushing its record, so the next writer builds (on
// the staged head) while this one syncs, and records appended during an
// fsync share the next one. The flush holds only the log's sync mutex,
// and the publish only durability.mu.
//
// The log is logical (see record.go): replay calls the live mutation's
// apply function with the decisions the record pinned.
//
// Checkpoints bound recovery time: the commit that brings the count of
// published records since the last checkpoint to CheckpointEvery writes
// an atomic snapshot (temp + fsync + rename) carrying the WAL high-water
// mark, then swaps in a fresh log. Replay skips records at or below the
// snapshot's mark, so a crash between the snapshot rename and the log
// swap — which leaves old records behind — recovers correctly: the stale
// records are recognized and ignored.

// ErrDurability marks a mutation that failed because its write-ahead
// record (or a checkpoint) could not be made durable. The in-memory
// state, the definitions the mutation registered included, has been
// rolled back; the catalog still serves reads and may accept later
// mutations if the underlying fault was transient.
var ErrDurability = errors.New("catalog: durability failure")

// DurabilityOptions configures OpenDurable.
type DurabilityOptions struct {
	// FS is the filesystem the log and snapshots live on; nil uses the
	// real one. Tests inject a faultio.Faulty/MemFS here.
	FS faultio.FS
	// WALPath is the write-ahead log file. Required. Checkpoint
	// snapshots live beside it, at WALPath + ".snap".
	WALPath string
	// CheckpointEvery checkpoints after that many committed records;
	// 0 disables automatic checkpoints (explicit Checkpoint/Close only).
	CheckpointEvery int
	// NoSync skips the per-batch fsync; for measuring fsync cost only.
	NoSync bool
}

// durability is the catalog's attached log + checkpoint state. The
// fields above mu are fixed at OpenDurable; the catalog's write lock
// guards the checkpoint counters; mu guards the rest, which writers
// update after releasing the catalog lock.
type durability struct {
	fs       faultio.FS
	w        *wal.Writer
	snapPath string
	every    int

	checkpoints       uint64
	lastCheckpointErr error

	mu sync.Mutex
	// publishedSeq is the log sequence of the last mutation whose
	// version readers can see — the replication watermark a snapshot
	// carries. It trails the log's LastSeq while staged commits await
	// their batch fsync. Written together with the published version, so
	// a pin taken under mu sees a matching pair.
	publishedSeq uint64
	// staged is the chain of precommitted-but-unpublished commits, in
	// epoch (= append = log sequence) order.
	staged []*stagedCommit
	// notify is closed and replaced on every publish; the replication
	// stream's long poll waits on it instead of busy-polling.
	notify chan struct{}
	// sinceCheckpoint counts records published since the last checkpoint.
	sinceCheckpoint int
}

// stagedCommit pairs one mutation's frozen version with its record's
// log sequence. failed marks a commit the heal path abandoned; its
// sequence may be reused by a later record. Both are guarded by
// durability.mu.
type stagedCommit struct {
	staged *relstore.Staged
	seq    uint64
	failed bool
}

// DurabilityStats reports the durability subsystem's counters.
type DurabilityStats struct {
	Enabled             bool           `json:"enabled"`
	WAL                 wal.Stats      `json:"wal"`
	Group               wal.GroupStats `json:"group"`
	PublishedSeq        uint64         `json:"published_seq"`
	StagedDepth         int            `json:"staged_depth"`
	Checkpoints         uint64         `json:"checkpoints"`
	SinceCheckpoint     int            `json:"records_since_checkpoint"`
	CheckpointEvery     int            `json:"checkpoint_every"`
	LastCheckpointError string         `json:"last_checkpoint_error,omitempty"`
}

// OpenDurable opens a catalog backed by a write-ahead log: it recovers
// state from the latest snapshot (if any) plus the log's intact records,
// then attaches the log so every subsequent mutation is made durable
// before it is acknowledged. A torn final log record (a crashed append)
// is truncated away; a corrupt snapshot or corrupt interior log record
// is refused.
func OpenDurable(schema *xmlschema.Schema, opts Options, dopts DurabilityOptions) (*Catalog, error) {
	if dopts.WALPath == "" {
		return nil, fmt.Errorf("catalog: durability requires a WAL path")
	}
	fs := dopts.FS
	if fs == nil {
		fs = faultio.OS{}
	}
	snapPath := dopts.WALPath + ".snap"

	var c *Catalog
	var fromSeq uint64
	if size, err := fs.Size(snapPath); err == nil {
		f, err := fs.Open(snapPath)
		if err != nil {
			return nil, fmt.Errorf("catalog: recovery: %w", err)
		}
		c, fromSeq, err = loadSnapshot(schema, opts, f, size)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("catalog: recovering snapshot %s: %w", snapPath, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("catalog: recovery: %w", err)
	} else if c, err = Open(schema, opts); err != nil {
		return nil, err
	}

	// Replay all intact records into one relstore transaction: later
	// records must observe earlier ones, and one commit publishes the
	// whole recovered state at a single epoch.
	var w *wal.Writer
	err := c.withTx(func() error {
		var werr error
		w, werr = wal.Open(fs, dopts.WALPath, func(rec wal.Record) error {
			if rec.Seq <= fromSeq {
				return nil // already contained in the snapshot
			}
			nops, err := c.replayRecord(rec.Payload)
			if err != nil {
				return fmt.Errorf("record %d: %w", rec.Seq, err)
			}
			c.obsv.replayRecords.Inc()
			c.obsv.replayOps.Add(uint64(nops))
			return nil
		})
		return werr
	})
	if err != nil {
		if w != nil {
			w.Close()
		}
		return nil, fmt.Errorf("catalog: recovering log %s: %w", dopts.WALPath, err)
	}
	w.SetNextSeq(fromSeq + 1)
	w.NoSync = dopts.NoSync
	w.SetMetrics(c.obsv.reg)
	c.dur = &durability{
		fs:           fs,
		w:            w,
		snapPath:     snapPath,
		every:        dopts.CheckpointEvery,
		publishedSeq: w.LastSeq(),
		notify:       make(chan struct{}),
	}
	return c, nil
}

// mutate is the single funnel every mutation goes through. Under the
// catalog lock, fn's row operations apply to a copy-on-write relstore
// transaction (fn must address tables through c.wtab), and fn's apply
// functions journal the ops they applied into the in-flight record. A
// failed fn, or one that journaled nothing, aborts the builder, so the
// published version never moves. On a durable catalog the built version
// is staged and its record appended before the lock is released; the
// writer then flushes the record without the lock and publishes (see
// the package comment above). On a catalog without a log the
// version is published at once.
func (c *Catalog) mutate(fn func() error) error {
	if c.follower {
		return ErrReadOnlyReplica
	}
	c.mu.Lock()
	tr, done := c.beginOp("mutate", c.obsv.opMutate)
	defer done()
	tx := c.bind(c.DB.Begin())
	c.recording = true
	c.rec = c.rec[:0]
	err := fn()
	c.recording = false
	c.bind(nil)
	nops := len(c.rec)
	d := c.dur
	var payload []byte
	if err == nil && nops > 0 && d != nil {
		payload = encodeRecord(c.rec)
	}
	clear(c.rec) // drop the documents the ops hold
	switch {
	case err != nil || nops == 0:
		tx.Abort()
		c.mu.Unlock()
		return err
	case d == nil:
		tx.Commit()
		c.obsv.versionSwaps.Inc()
		c.mu.Unlock()
		return nil
	}
	// Log order must be epoch order, so both happen under the lock.
	seq, werr := d.w.Append(payload)
	if werr != nil {
		tx.Abort()
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrDurability, werr)
	}
	sc := &stagedCommit{staged: tx.Precommit(), seq: seq}
	d.mu.Lock()
	d.staged = append(d.staged, sc)
	d.mu.Unlock()
	c.mu.Unlock()

	start := time.Now()
	werr = d.w.Flush(seq)
	wait := time.Since(start)
	if werr != nil {
		c.mu.Lock()
		if c.dur == d {
			c.healLocked()
		}
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrDurability, werr)
	}
	c.obsv.walCommitNanos.Observe(wait.Nanoseconds())
	tr.AddStage("wal_commit", start, wait, int64(nops))
	if !c.publishDurable(d, sc) {
		// A heal abandoned the record before this flush ran, and a
		// later record reused its sequence.
		return fmt.Errorf("%w: record abandoned after an earlier record's flush failed", ErrDurability)
	}
	if d.checkpointDue() {
		c.mu.Lock()
		if c.dur == d && d.checkpointDue() {
			// A failed automatic checkpoint must not fail the mutation —
			// the record IS durable in the log; surface it via stats.
			d.lastCheckpointErr = c.checkpointLocked()
		}
		c.mu.Unlock()
	}
	return nil
}

// publishDurable publishes the longest prefix of d's staged chain whose
// records are durable, advancing the replication watermark and waking
// stream long-polls, and reports whether own (nil for none) was not
// abandoned. The records after that prefix are pending, or failed and
// owned by the heal path. A writer whose flush succeeded finds its own
// entry in that prefix, already published by another writer, or
// abandoned: a heal abandons only records that were not durable.
func (c *Catalog) publishDurable(d *durability, own *stagedCommit) bool {
	durable := d.w.LastSeq()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, sc := range d.staged {
		if sc.seq > durable {
			break
		}
		c.DB.Publish(sc.staged)
		d.publishedSeq = sc.seq
		n++
	}
	if n > 0 {
		d.staged = d.staged[n:]
		d.sinceCheckpoint += n
		c.obsv.versionSwaps.Add(uint64(n))
		close(d.notify)
		d.notify = make(chan struct{})
	}
	return own == nil || !own.failed
}

// checkpointDue reports whether the published records since the last
// checkpoint reached CheckpointEvery.
func (d *durability) checkpointDue() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.every > 0 && d.sinceCheckpoint >= d.every
}

// healLocked reconciles in-memory state with the log after a failed
// flush: the durable prefix of the staged chain is published, the
// failed suffix — whose records were rolled back out of the log and
// whose sequence numbers Heal returns — is abandoned (the next Begin
// bases on the published version again), and the log writer is healed
// so later mutations proceed. Requires c.mu, which keeps every append
// out while the staging head is reset. The poison is read before the
// publish: a poisoned writer advances no durable sequence, so nothing
// durable can land in the abandoned suffix. Idempotent: every failed
// writer calls it, and all but the first find the writer healthy.
func (c *Catalog) healLocked() {
	d := c.dur
	poisoned := d.w.Poisoned() != nil
	c.publishDurable(d, nil)
	if !poisoned {
		return
	}
	d.mu.Lock()
	for _, sc := range d.staged {
		sc.failed = true
	}
	d.staged = nil
	c.DB.ResetHead()
	d.mu.Unlock()
	// Heal fails only if the log writer itself is wedged; leave the
	// poison in place then — Wedged()/healthz surface it.
	_ = d.w.Heal()
}

// bind makes tx the transaction mutations write through (nil unbinds),
// with no private definitions yet, and returns it.
func (c *Catalog) bind(tx *relstore.Tx) *relstore.Tx {
	c.tx, c.draft = tx, nil
	return tx
}

// withTx runs fn with c.tx bound to one relstore transaction, without
// recording or WAL involvement: the recovery paths (log replay, follower
// apply, snapshot load) use it to batch restored rows into a single
// published version.
func (c *Catalog) withTx(fn func() error) error {
	tx := c.bind(c.DB.Begin())
	err := fn()
	c.bind(nil)
	if err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}

// wtab returns the handle mutations (and reads that must observe the
// in-flight mutation) address the named table through: the open
// transaction's when one is bound, the live database's otherwise.
func (c *Catalog) wtab(name string) *relstore.Table {
	if c.tx != nil {
		return c.tx.MustTable(name)
	}
	return c.DB.MustTable(name)
}

// Checkpoint writes an atomic snapshot and swaps in a fresh log. Safe to
// call at any time on a durable catalog.
func (c *Catalog) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur == nil {
		return fmt.Errorf("catalog: not opened with durability")
	}
	return c.checkpointLocked()
}

// checkpointLocked implements the checkpoint protocol: write the
// snapshot (carrying the log's high-water mark) atomically, then replace
// the log. A crash or failure after the snapshot rename but before the
// log swap is benign — recovery skips replayed records at or below the
// snapshot's mark.
func (c *Catalog) checkpointLocked() error {
	d := c.dur
	// Flush every appended record first (a flush in flight on a writer's
	// goroutine does not need the catalog lock we hold), publish
	// everything durable, and heal a failed suffix — so the snapshot
	// sees a state where publishedSeq equals the log's last sequence and
	// the log swap below loses nothing. The lock keeps new records out
	// until the swap. A failed flush is the heal's to resolve.
	d.mu.Lock()
	var last uint64
	if n := len(d.staged); n > 0 {
		last = d.staged[n-1].seq
	}
	d.mu.Unlock()
	_ = d.w.Flush(last)
	c.healLocked()
	if err := saveFile(d.fs, d.snapPath, c.Schema, c.pinLocked()); err != nil {
		return fmt.Errorf("%w: checkpoint snapshot: %v", ErrDurability, err)
	}
	// The snapshot is durable: recovery no longer needs the log records.
	d.mu.Lock()
	d.sinceCheckpoint = 0
	d.mu.Unlock()
	d.checkpoints++
	c.obsv.checkpoints.Inc()
	if err := d.w.Reset(d.w.LastSeq() + 1); err != nil {
		return fmt.Errorf("%w: log reset after checkpoint: %v", ErrDurability, err)
	}
	return nil
}

// Close checkpoints (when durable) and releases the log. The catalog
// must not be used afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur == nil {
		return nil
	}
	err := c.checkpointLocked()
	if cerr := c.dur.w.Close(); err == nil {
		err = cerr
	}
	c.dur = nil
	return err
}

// Wedged returns the error that wedged the durability layer — a failed
// post-failure cleanup left the log tail in an unknown state, so every
// further mutation is refused — or nil while the catalog is healthy (or
// was opened without durability). Health endpoints report it without
// attempting a commit.
func (c *Catalog) Wedged() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dur == nil {
		return nil
	}
	return c.dur.w.Broken()
}

// PublishedSeq returns the log sequence of the last mutation whose
// effects readers can observe: the replication watermark.
func (c *Catalog) PublishedSeq() uint64 {
	c.mu.RLock()
	d := c.dur
	c.mu.RUnlock()
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.publishedSeq
}

// WALSince returns the durable log records with sequence numbers above
// from, along with the log's last sequence, for the replication stream.
// gap reports that a checkpoint has truncated records the caller still
// needs — it must bootstrap from a snapshot instead (see
// ReplicationSnapshot). Requires durability.
func (c *Catalog) WALSince(from uint64) (recs []wal.Record, lastSeq uint64, gap bool, err error) {
	c.mu.RLock()
	w := c.durWriter()
	c.mu.RUnlock()
	if w == nil {
		return nil, 0, false, fmt.Errorf("catalog: not opened with durability")
	}
	// The writer has its own mutex; holding the catalog lock across the
	// file read would stall mutations for every stream poll.
	return w.RecordsSince(from)
}

// durWriter returns the attached log writer (caller holds c.mu).
func (c *Catalog) durWriter() *wal.Writer {
	if c.dur == nil {
		return nil
	}
	return c.dur.w
}

// CommitNotify returns a channel that is closed the next time a
// mutation publishes (equivalently: the next time new log records may
// be available to stream). Callers re-fetch a fresh channel after each
// wake-up; the replication stream's long poll uses it instead of
// busy-polling WALSince.
func (c *Catalog) CommitNotify() <-chan struct{} {
	c.mu.RLock()
	d := c.dur
	c.mu.RUnlock()
	if d == nil {
		closed := make(chan struct{})
		close(closed)
		return closed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.notify
}

// ReplicationSnapshot writes a bootstrap snapshot for a replica that
// hit a log gap, returning the watermark the snapshot contains (the
// replica resumes streaming from it). Requires durability. The catalog
// lock is held only to pin the state, not while it is encoded and
// written, so mutations proceed while a slow reader drains w.
func (c *Catalog) ReplicationSnapshot(w io.Writer) (uint64, error) {
	c.mu.RLock()
	if c.dur == nil {
		c.mu.RUnlock()
		return 0, fmt.Errorf("catalog: not opened with durability")
	}
	p := c.pinLocked()
	c.mu.RUnlock()
	return p.walSeq, writeSnapshot(c.Schema, p, w)
}

// DurabilityStats returns the durability counters; zero-valued when the
// catalog was opened without durability.
func (c *Catalog) DurabilityStats() DurabilityStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dur == nil {
		return DurabilityStats{}
	}
	d := c.dur
	s := DurabilityStats{
		Enabled:         true,
		WAL:             d.w.Stats(),
		Group:           d.w.GroupStats(),
		Checkpoints:     d.checkpoints,
		CheckpointEvery: d.every,
	}
	if d.lastCheckpointErr != nil {
		s.LastCheckpointError = d.lastCheckpointErr.Error()
	}
	d.mu.Lock()
	s.PublishedSeq = d.publishedSeq
	s.StagedDepth = len(d.staged)
	s.SinceCheckpoint = d.sinceCheckpoint
	d.mu.Unlock()
	return s
}
