// Package wal implements the catalog's write-ahead log: an append-only
// file of length-prefixed, CRC-checksummed, sequence-numbered records
// over a faultio.FS.
//
// On-disk layout:
//
//	header:  8 bytes  magic "HCWAL03\n"
//	record:  u32 length of (seq + payload)
//	         u32 CRC-32C of (length ∥ seq ∥ payload)
//	         u64 sequence number (strictly increasing within a file)
//	         payload bytes
//
// The checksum covers the length prefix, so a rotted length byte is
// detected like any other corruption whenever the claimed extent still
// lies inside the file. (A rotted length that claims an extent past
// end-of-file is indistinguishable from a record torn by a crash and is
// truncated — the same trade-off LevelDB-style logs make.)
//
// Every batch of records is written with a single Write call, so a
// crash tears it into a prefix, never an interleaving. Open replays intact
// records and distinguishes the two failure shapes a log can be left in:
//
//   - a torn tail — the final record is incomplete or fails its
//     checksum and nothing follows it; the tail is truncated away and
//     recovery proceeds (the record was never acknowledged), and
//   - a corrupt body — a record that checksums wrong with valid data
//     after it, i.e. bytes rotted in place; Open refuses the log rather
//     than silently dropping acknowledged history.
//
// Records commit in groups: Append numbers a record into an in-memory
// batch, and a Flush writes the whole batch with one Write and one
// fsync (see Writer). If either fails the writer truncates the log back
// to its last durable length before returning the error, so a failed
// batch can never leak a half-written record into the tail that a later
// successful flush would then appear to acknowledge.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
)

const (
	// magic names the log format version: the framing below plus the
	// payload encoding its writer uses, which the framing cannot tell
	// apart. Version 2 carried physical row operations; version 3
	// carries logical records (the catalog's mutations as received).
	magic = "HCWAL03\n"
	// magicFamily prefixes every version's magic, so a log of another
	// version is refused by name rather than as corruption.
	magicFamily = "HCWAL"
	headerSize  = 8
	// recHeader is u32 length + u32 crc.
	recHeader = 8
	// maxRecord bounds a single record so a corrupt length prefix cannot
	// drive a giant allocation.
	maxRecord = 1 << 30
)

// ErrCorrupt marks a log whose interior bytes fail their checksum; the
// log cannot be trusted and recovery must refuse it.
var ErrCorrupt = errors.New("wal: corrupt record")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed log entry.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Stats are the writer's lifetime counters.
type Stats struct {
	LastSeq  uint64 `json:"last_seq"`
	Size     int64  `json:"size_bytes"`
	Appends  uint64 `json:"appends"`
	Syncs    uint64 `json:"syncs"`
	Resets   uint64 `json:"resets"`
	TornTail int64  `json:"torn_tail_bytes"` // bytes truncated at Open
}

// GroupStats count the writer's flushes: each flush is one batch of
// the records appended since the previous one.
type GroupStats struct {
	Batches      uint64 `json:"batches"`
	Records      uint64 `json:"records"`
	LargestBatch int    `json:"largest_batch"`
	Failures     uint64 `json:"failures"`
}

// Writer appends records to an open log with group commit. Append
// encodes a record into an in-memory pending batch and numbers it,
// without I/O; Flush makes a record durable by writing every pending
// record with one Write and one fsync, so concurrent writers that flush
// while an fsync runs share the next one, and a lone writer pays one
// fsync with no added wait.
//
// Two mutexes keep the file off the append path. syncMu serializes
// every file operation: a flush's write and fsync, the truncate after a
// failure, Reset and RecordsSince's read. mu guards the in-memory state
// and is never held across I/O, so Append never waits on an fsync. The
// durable-prefix fields change only under both, so LastSeq, Size, Stats
// and Broken read them under mu alone.
//
// A failed flush poisons the writer: the log is truncated back to its
// durable length, every pending record fails (records built on the
// failed ones' state must not commit without them) and Append is
// refused until Heal.
type Writer struct {
	// NoSync skips the fsync in Flush; for benchmarking the fsync cost
	// only — acknowledged records may be lost on crash.
	NoSync bool
	// AfterSync, when non-nil, runs after a batch's fsync succeeds and
	// before any of its records is reported durable. Tests use it to
	// crash or stall a commit at exactly that boundary. It runs under
	// the sync mutex, so it must not call Flush, Reset, RecordsSince or
	// Close. Set before the writer is shared between goroutines.
	AfterSync func()

	fs   faultio.FS
	path string
	m    walMetrics

	syncMu sync.Mutex
	f      faultio.File // guarded by syncMu alone

	mu      sync.Mutex
	pending []byte // frames appended since the last flush took them
	seq     uint64 // last appended sequence
	poison  error  // the failed flush refusing Append until Heal

	// Written under syncMu and mu.
	durable uint64 // last durable sequence
	off     int64  // durable end of the log
	base    uint64 // sequence just before the current file's first record
	broken  error
	stats   Stats
	group   GroupStats
}

// walMetrics are the writer's registry handles; all nil (no-ops) until
// SetMetrics installs them.
type walMetrics struct {
	appends      *obs.Counter
	bytes        *obs.Counter
	fsyncs       *obs.Counter
	fsyncNanos   *obs.Histogram
	resets       *obs.Counter
	batches      *obs.Counter
	batchRecords *obs.Counter
	batchSize    *obs.Histogram
}

// SetMetrics attaches registry instrumentation: wal_appends_total,
// wal_append_bytes_total, wal_fsyncs_total, wal_resets_total,
// wal_group_batches_total and wal_group_records_total counters, a
// wal_fsync_nanos latency histogram and a wal_group_batch_records size
// histogram. The Stats counters keep working independently. Call before
// the writer is used; nil reg is a no-op (the disabled default).
func (w *Writer) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.m = walMetrics{
		appends:      reg.Counter("wal_appends_total"),
		bytes:        reg.Counter("wal_append_bytes_total"),
		fsyncs:       reg.Counter("wal_fsyncs_total"),
		fsyncNanos:   reg.Histogram("wal_fsync_nanos"),
		resets:       reg.Counter("wal_resets_total"),
		batches:      reg.Counter("wal_group_batches_total"),
		batchRecords: reg.Counter("wal_group_records_total"),
		batchSize:    reg.Histogram("wal_group_batch_records"),
	}
}

// Open opens (or creates) the log at path, replaying every intact record
// through fn in order. A torn tail is truncated; a corrupt interior
// record returns an error wrapping ErrCorrupt. The returned writer is
// positioned after the last intact record.
func Open(fs faultio.FS, path string, fn func(Record) error) (*Writer, error) {
	w := &Writer{fs: fs, path: path}
	size, err := fs.Size(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return w, w.create()
	case err != nil:
		return nil, err
	}
	data, err := readAll(fs, path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != size {
		return nil, fmt.Errorf("wal: %s: read %d bytes, stat says %d", path, len(data), size)
	}
	if len(data) < headerSize {
		// Crash during initial creation, before the header was durable:
		// no record can have been acknowledged, start fresh.
		w.stats.TornTail = int64(len(data))
		return w, w.create()
	}
	if got := string(data[:headerSize]); got != magic {
		if strings.HasPrefix(got, magicFamily) {
			return nil, fmt.Errorf("wal: %s: log format %s, this build reads %s", path, strings.TrimSpace(got), strings.TrimSpace(magic))
		}
		return nil, fmt.Errorf("wal: %s: bad magic %q: %w", path, got, ErrCorrupt)
	}
	end, err := w.scan(data, fn)
	if err != nil {
		return nil, err
	}
	if end < int64(len(data)) {
		w.stats.TornTail = int64(len(data)) - end
		if err := fs.Truncate(path, end); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	w.off = end
	w.f, err = fs.OpenAppend(path)
	return w, err
}

// scan walks the records in data, calling fn for each intact one, and
// returns the offset after the last intact record.
func (w *Writer) scan(data []byte, fn func(Record) error) (int64, error) {
	o := headerSize
	for {
		if len(data)-o < recHeader {
			return int64(o), nil // torn: partial record header
		}
		length := binary.LittleEndian.Uint32(data[o:])
		sum := binary.LittleEndian.Uint32(data[o+4:])
		if length < 8 || length > maxRecord {
			return 0, fmt.Errorf("wal: record at offset %d: bad length %d: %w", o, length, ErrCorrupt)
		}
		body := o + recHeader
		end := body + int(length)
		if end > len(data) {
			return int64(o), nil // torn: record cut short by the crash
		}
		got := crc32.Checksum(data[o:o+4], crcTable)
		got = crc32.Update(got, crcTable, data[body:end])
		if got != sum {
			if end == len(data) {
				// The final record checksums wrong and nothing follows:
				// a partial page writeback of the crashed append. Drop it.
				return int64(o), nil
			}
			return 0, fmt.Errorf("wal: record at offset %d: checksum mismatch: %w", o, ErrCorrupt)
		}
		seq := binary.LittleEndian.Uint64(data[body:])
		if seq <= w.seq {
			return 0, fmt.Errorf("wal: record at offset %d: sequence %d after %d: %w", o, seq, w.seq, ErrCorrupt)
		}
		if o == headerSize {
			w.base = seq - 1
		}
		w.seq, w.durable = seq, seq
		if fn != nil {
			if err := fn(Record{Seq: seq, Payload: data[body+8 : end]}); err != nil {
				return 0, err
			}
		}
		o = end
	}
}

// create writes a fresh log containing only the header and syncs it.
func (w *Writer) create() error {
	f, err := w.fs.Create(w.path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.off = headerSize
	w.base = w.seq
	return nil
}

// EncodeRecord assembles the on-disk (and on-wire: the replication
// stream reuses the file framing) bytes of one record.
func EncodeRecord(seq uint64, payload []byte) []byte {
	return appendRecord(nil, seq, payload)
}

// appendRecord appends one record's frame to dst.
func appendRecord(dst []byte, seq uint64, payload []byte) []byte {
	o := len(dst)
	dst = slices.Grow(dst, recHeader+8+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8+len(payload)))
	dst = append(dst, 0, 0, 0, 0) // checksum, filled in below
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[o:o+4], crcTable)
	sum = crc32.Update(sum, crcTable, dst[o+recHeader:])
	binary.LittleEndian.PutUint32(dst[o+4:], sum)
	return dst
}

// Commit appends one record and flushes it, returning its sequence
// number once it is durable.
func (w *Writer) Commit(payload []byte) (uint64, error) {
	seq, err := w.Append(payload)
	if err != nil {
		return 0, err
	}
	return seq, w.Flush(seq)
}

// Append adds one record to the pending batch and returns its sequence
// number. It does no I/O: the record is durable only once a Flush of
// its sequence returns. Append is refused while a failed flush poisons
// the writer (until Heal) and once the writer is wedged.
func (w *Writer) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecord-8 {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.broken != nil:
		return 0, fmt.Errorf("wal: writer is wedged by an earlier failure: %w", w.broken)
	case w.poison != nil:
		return 0, fmt.Errorf("wal: append refused until the failed flush is healed: %w", w.poison)
	}
	w.seq++
	w.pending = appendRecord(w.pending, w.seq, payload)
	return w.seq, nil
}

// Flush returns once record seq is durable. If it is not yet, Flush
// writes every pending record with one Write, fsyncs once, runs
// AfterSync and only then advances the durable sequence. On a write or
// fsync failure the log is truncated back to its durable length and the
// writer is poisoned: this flush and every later one of a pending
// record fail until Heal, which drops the pending records. A sequence
// above the last appended one (a record Heal dropped) fails too.
func (w *Writer) Flush(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	buf, last, poison := w.pending, w.seq, w.poison
	switch {
	case seq <= w.durable:
		w.mu.Unlock()
		return nil
	case poison != nil:
		w.mu.Unlock()
		return fmt.Errorf("wal: record %d failed with its batch: %w", seq, poison)
	case seq > last:
		w.mu.Unlock()
		return fmt.Errorf("wal: record %d was never appended or was dropped by Heal", seq)
	}
	w.pending = nil
	w.mu.Unlock()

	n := last - w.durable
	var took time.Duration
	_, err := w.f.Write(buf)
	if err != nil {
		err = fmt.Errorf("wal: append: %w", err)
	} else if !w.NoSync {
		start := time.Now()
		if err = w.f.Sync(); err != nil {
			err = fmt.Errorf("wal: sync: %w", err)
		}
		took = time.Since(start)
	}
	if err != nil {
		broken := w.rollback()
		w.mu.Lock()
		w.poison, w.broken = err, broken
		w.group.Failures++
		w.mu.Unlock()
		return err
	}
	if w.AfterSync != nil {
		w.AfterSync()
	}

	w.mu.Lock()
	w.durable = last
	w.off += int64(len(buf))
	w.stats.Appends += n
	if !w.NoSync {
		w.stats.Syncs++
	}
	w.group.Batches++
	w.group.Records += n
	w.group.LargestBatch = max(w.group.LargestBatch, int(n))
	w.mu.Unlock()
	w.m.appends.Add(n)
	w.m.bytes.Add(uint64(len(buf)))
	if !w.NoSync {
		w.m.fsyncs.Inc()
		w.m.fsyncNanos.Observe(took.Nanoseconds())
	}
	w.m.batches.Inc()
	w.m.batchRecords.Add(n)
	w.m.batchSize.Observe(int64(n))
	return nil
}

// rollback restores the log file to the last durable length after a
// failed flush (caller holds syncMu). It returns a non-nil error if the
// cleanup itself failed: then the tail's content is unknown and the
// writer wedges.
func (w *Writer) rollback() error {
	w.f.Close()
	if err := w.fs.Truncate(w.path, w.off); err != nil {
		return fmt.Errorf("wal: truncate after failed append: %w", err)
	}
	f, err := w.fs.OpenAppend(w.path)
	if err != nil {
		return fmt.Errorf("wal: reopen after failed append: %w", err)
	}
	w.f = f
	return nil
}

// Poisoned returns the flush failure refusing Append, or nil while the
// writer accepts records.
func (w *Writer) Poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.poison
}

// Heal clears the poison after the caller has reconciled its state with
// the log: it drops the pending records and rewinds the sequence to the
// durable one, so the failed records consume no sequence number. It
// fails if the writer is wedged — then the log's tail content is
// unknown and no record can be trusted.
func (w *Writer) Heal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if w.poison != nil {
		w.poison, w.pending, w.seq = nil, nil, w.durable
	}
	return nil
}

// Reset replaces the log with a fresh one whose records will start at
// nextSeq; called after a checkpoint has made the old records redundant.
// Every appended record must be durable, and the caller keeps Append
// out until Reset returns. A failed reset leaves the writer on the old
// log, which stays correct (replay skips records at or below the
// checkpoint's sequence).
func (w *Writer) Reset(nextSeq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	err := w.broken
	if err == nil && w.seq != w.durable {
		err = fmt.Errorf("wal: reset: %d records are not durable", w.seq-w.durable)
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	tmp := w.path + ".tmp"
	f, err := w.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := w.fs.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	w.f.Close()
	nf, err := w.fs.OpenAppend(w.path)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.broken = fmt.Errorf("wal: reopen after reset: %w", err)
		return w.broken
	}
	w.f = nf
	w.off = headerSize
	if nextSeq > 0 {
		w.seq, w.durable = nextSeq-1, nextSeq-1
	}
	w.base = w.seq
	w.stats.Resets++
	w.m.resets.Inc()
	return nil
}

// SetNextSeq raises the next sequence number to at least seq; recovery
// uses it, before any record is appended, so records appended after a
// snapshot-only restart continue above the snapshot's high-water mark.
func (w *Writer) SetNextSeq(seq uint64) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > 0 && seq-1 > w.seq {
		w.seq, w.durable = seq-1, seq-1
		if w.off == headerSize {
			w.base = w.seq
		}
	}
}

// LastSeq returns the sequence number of the last durable record (or
// the recovered high-water mark); appended records still pending do not
// count.
func (w *Writer) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// Size returns the log's durable length in bytes.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Broken reports the wedging error from an earlier failed cleanup, or
// nil while the writer is healthy. Health endpoints use it to surface
// the wedged state without attempting a commit.
func (w *Writer) Broken() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Stats returns the writer's counters over the durable prefix.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.LastSeq = w.durable
	s.Size = w.off
	return s
}

// GroupStats returns the writer's flush counters.
func (w *Writer) GroupStats() GroupStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.group
}

// RecordsSince reads back the durable records with sequence numbers
// strictly greater than from, serving the replication stream. It also
// returns the log's last durable sequence and whether the request hit a
// gap: a checkpoint has truncated records after from, so the caller
// cannot catch up from the log alone and must bootstrap from a
// snapshot. The read runs under the sync mutex, so a flushing batch is
// either wholly visible or not yet visible, and Append never waits on
// it.
func (w *Writer) RecordsSince(from uint64) (recs []Record, lastSeq uint64, gap bool, err error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if from < w.base {
		return nil, w.durable, true, nil
	}
	if from >= w.durable {
		return nil, w.durable, false, nil
	}
	data, err := readAll(w.fs, w.path)
	if err != nil {
		return nil, w.durable, false, fmt.Errorf("wal: stream read: %w", err)
	}
	if int64(len(data)) > w.off {
		data = data[:w.off]
	}
	o := int64(headerSize)
	for o < w.off {
		length := binary.LittleEndian.Uint32(data[o:])
		body := o + recHeader
		end := body + int64(length)
		if end > w.off {
			return nil, w.durable, false, fmt.Errorf("wal: stream read: record at %d overruns durable end %d", o, w.off)
		}
		seq := binary.LittleEndian.Uint64(data[body:])
		if seq > from {
			recs = append(recs, Record{Seq: seq, Payload: data[body+8 : end]})
		}
		o = end
	}
	return recs, w.durable, false, nil
}

// Close closes the underlying file.
func (w *Writer) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}

// DecodeFrames parses a replication stream body: a concatenation of
// record frames in the file framing (no file header). It decodes as
// many intact frames as data holds. A torn trailing frame — the normal
// result of a cut connection — is silently dropped, since the tailer
// will re-request from its last applied sequence; a checksum mismatch
// on a complete interior frame returns the frames decoded before it
// plus an error wrapping ErrCorrupt, telling the caller the transport
// delivered rot rather than a tear.
func DecodeFrames(data []byte) ([]Record, error) {
	var recs []Record
	o := 0
	for {
		if len(data)-o < recHeader {
			return recs, nil // torn frame header
		}
		length := binary.LittleEndian.Uint32(data[o:])
		sum := binary.LittleEndian.Uint32(data[o+4:])
		if length < 8 || length > maxRecord {
			return recs, fmt.Errorf("wal: stream frame at offset %d: bad length %d: %w", o, length, ErrCorrupt)
		}
		body := o + recHeader
		end := body + int(length)
		if end > len(data) {
			return recs, nil // torn frame body
		}
		got := crc32.Checksum(data[o:o+4], crcTable)
		got = crc32.Update(got, crcTable, data[body:end])
		if got != sum {
			if end == len(data) {
				return recs, nil // torn final frame (partial writeback shape)
			}
			return recs, fmt.Errorf("wal: stream frame at offset %d: checksum mismatch: %w", o, ErrCorrupt)
		}
		recs = append(recs, Record{
			Seq:     binary.LittleEndian.Uint64(data[body:]),
			Payload: data[body+8 : end],
		})
		o = end
	}
}

// readAll reads the whole file at path.
func readAll(fs faultio.FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
