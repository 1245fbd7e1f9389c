package wal

import (
	"fmt"
	"sync"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// GroupWriter coalesces concurrent commits into shared fsyncs. Callers
// Enqueue a payload (cheap, non-blocking) and then Wait on the returned
// Ticket; the first waiter of an idle writer is promoted to batch
// leader, takes whatever is queued (up to maxBatch records) without
// waiting for more, flushes it with one concatenated append and one
// fsync via Writer.CommitBatch, and acknowledges every ticket only after
// the batch is durable. Leadership hands off to the head of the queue
// that accumulated during the flush, so a saturated writer pipelines:
// batch N+1 collects while batch N syncs, and a lone writer pays one
// fsync with no added delay.
//
// Failure model: a failed batch poisons the group — every ticket in the
// failed batch and everything queued behind it fails, and further
// Enqueues fail immediately until Heal. That is deliberate: queued
// commits were built on top of the failed ones' state (the catalog's
// staged MVCC chain), so committing them without their predecessors
// would leave a log that replays to a state no reader ever observed.
type GroupWriter struct {
	// AfterSync, when non-nil, runs after a batch's fsync succeeds and
	// before any of its tickets are acknowledged: the records are durable
	// but not yet acknowledged to their committers. Tests use it to crash
	// or stall a commit at exactly that boundary. Set before the writer
	// is shared between goroutines.
	AfterSync func()

	w *Writer

	mu     sync.Mutex
	cond   *sync.Cond // broadcast whenever the queue drains or a leader retires
	queue  []*Ticket
	leader bool // a promoted leader is flushing
	poison error
	stats  GroupStats
	m      groupMetrics
}

// maxBatch caps the records one batch flushes; a longer queue is left
// for the next leader.
const maxBatch = 64

// GroupStats are a GroupWriter's lifetime counters.
type GroupStats struct {
	Batches      uint64 `json:"batches"`
	Records      uint64 `json:"records"`
	LargestBatch int    `json:"largest_batch"`
	Failures     uint64 `json:"failures"`
}

// groupMetrics are the registry handles; nil (no-op) until SetMetrics.
type groupMetrics struct {
	batches   *obs.Counter
	records   *obs.Counter
	batchSize *obs.Histogram
}

// SetMetrics attaches registry instrumentation: wal_group_batches_total
// and wal_group_records_total counters plus a wal_group_batch_records
// size histogram. Call before the group writer is shared; nil reg is a
// no-op (the disabled default).
func (gw *GroupWriter) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	gw.m = groupMetrics{
		batches:   reg.Counter("wal_group_batches_total"),
		records:   reg.Counter("wal_group_records_total"),
		batchSize: reg.Histogram("wal_group_batch_records"),
	}
}

// NewGroupWriter wraps w with group commit.
func NewGroupWriter(w *Writer) *GroupWriter {
	gw := &GroupWriter{w: w}
	gw.cond = sync.NewCond(&gw.mu)
	return gw
}

// Ticket is one enqueued commit's handle: Wait blocks until the
// payload's batch is durable (possibly by leading the flush itself) and
// returns the record's sequence number.
type Ticket struct {
	gw      *GroupWriter
	payload []byte
	promote chan struct{} // buffered(1): this ticket should lead
	done    chan struct{} // closed once seq/err are set
	seq     uint64
	err     error
}

// Enqueue adds one record payload to the pending batch and returns its
// ticket. It never blocks on I/O; call Wait on the ticket (outside any
// lock ordering above the caller) to learn the outcome. While the group
// is poisoned the ticket comes back already failed.
func (gw *GroupWriter) Enqueue(payload []byte) *Ticket {
	t := &Ticket{
		gw:      gw,
		payload: payload,
		promote: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	gw.mu.Lock()
	if gw.poison != nil {
		t.err = fmt.Errorf("wal: group commit poisoned by earlier batch failure: %w", gw.poison)
		close(t.done)
		gw.mu.Unlock()
		return t
	}
	gw.queue = append(gw.queue, t)
	if !gw.leader {
		gw.leader = true
		t.promote <- struct{}{}
	}
	gw.mu.Unlock()
	return t
}

// Wait blocks until the ticket's record is durable (or its batch
// failed) and returns the assigned sequence number. If the ticket is
// promoted to batch leader, Wait performs the flush on the calling
// goroutine — there is no dedicated flusher thread.
func (t *Ticket) Wait() (uint64, error) {
	for {
		select {
		case <-t.promote:
			t.gw.runBatch()
		case <-t.done:
			return t.seq, t.err
		}
	}
}

// Done reports, without blocking, whether the ticket's outcome is set.
func (t *Ticket) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Result returns the ticket's sequence number and error. Only valid
// after Wait returned or Done reported true.
func (t *Ticket) Result() (uint64, error) { return t.seq, t.err }

// runBatch runs one batch on the promoted waiter's goroutine: take the
// queue, flush, acknowledge, hand off leadership.
func (gw *GroupWriter) runBatch() {
	gw.mu.Lock()
	batch := gw.queue
	gw.queue = nil
	if len(batch) > maxBatch {
		gw.queue = append(gw.queue, batch[maxBatch:]...)
		batch = batch[:maxBatch]
	}
	gw.mu.Unlock()

	payloads := make([][]byte, len(batch))
	for i, bt := range batch {
		payloads[i] = bt.payload
	}
	first, err := gw.w.CommitBatch(payloads)
	if err == nil && gw.AfterSync != nil {
		gw.AfterSync()
	}

	gw.mu.Lock()
	if err != nil {
		gw.poison = err
		gw.stats.Failures++
	} else {
		gw.stats.Batches++
		gw.stats.Records += uint64(len(batch))
		if len(batch) > gw.stats.LargestBatch {
			gw.stats.LargestBatch = len(batch)
		}
		gw.m.batches.Inc()
		gw.m.records.Add(uint64(len(batch)))
		gw.m.batchSize.Observe(int64(len(batch)))
	}
	for i, bt := range batch {
		if err != nil {
			bt.err = err
		} else {
			bt.seq = first + uint64(i)
		}
		close(bt.done)
	}
	switch {
	case gw.poison != nil:
		// Fail everything queued behind the failed batch: it was built
		// on state whose log records will never exist.
		for _, qt := range gw.queue {
			qt.err = fmt.Errorf("wal: group commit poisoned by earlier batch failure: %w", gw.poison)
			close(qt.done)
		}
		gw.queue = nil
		gw.leader = false
	case len(gw.queue) > 0:
		gw.queue[0].promote <- struct{}{}
	default:
		gw.leader = false
	}
	gw.cond.Broadcast()
	gw.mu.Unlock()
}

// Drain blocks until no batch is collecting or flushing and the queue
// is empty; checkpoints use it to quiesce the group before snapshotting.
// Safe to call while holding locks above the group writer, because
// flushes run on waiter goroutines that hold no such locks.
func (gw *GroupWriter) Drain() {
	gw.mu.Lock()
	for gw.leader || len(gw.queue) > 0 {
		gw.cond.Wait()
	}
	gw.mu.Unlock()
}

// Poisoned returns the batch failure currently poisoning the group, or
// nil while it is healthy.
func (gw *GroupWriter) Poisoned() error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.poison
}

// Heal clears the poison after the caller has reconciled in-memory
// state with the log (published the durable prefix of the staged chain
// and discarded the rest). It fails if the underlying writer itself is
// wedged — then the log's tail content is unknown and no commit can be
// trusted.
func (gw *GroupWriter) Heal() error {
	if err := gw.w.Broken(); err != nil {
		return err
	}
	gw.mu.Lock()
	gw.poison = nil
	gw.mu.Unlock()
	return nil
}

// Stats returns the group writer's counters.
func (gw *GroupWriter) Stats() GroupStats {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.stats
}
