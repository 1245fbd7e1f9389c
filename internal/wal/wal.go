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
// Every record is written with a single Write call, so a crash tears a
// record into a prefix, never an interleaving. Open replays intact
// records and distinguishes the two failure shapes a log can be left in:
//
//   - a torn tail — the final record is incomplete or fails its
//     checksum and nothing follows it; the tail is truncated away and
//     recovery proceeds (the record was never acknowledged), and
//   - a corrupt body — a record that checksums wrong with valid data
//     after it, i.e. bytes rotted in place; Open refuses the log rather
//     than silently dropping acknowledged history.
//
// Commit is append + fsync; if either fails the writer truncates the log
// back to its last durable length before returning the error, so a
// failed commit can never leak a half-written record into the tail that
// a later successful commit would then appear to acknowledge.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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

// Writer appends records to an open log. All methods are safe for
// concurrent use: an internal mutex serializes appends, resets, and the
// replication read path (RecordsSince), so a group-commit leader can
// flush a batch while stream handlers read the durable prefix.
type Writer struct {
	// NoSync skips the fsync in Commit; for benchmarking the fsync cost
	// only — acknowledged records may be lost on crash.
	NoSync bool

	mu     sync.Mutex
	fs     faultio.FS
	path   string
	f      faultio.File
	off    int64 // durable end of the log
	seq    uint64
	base   uint64 // sequence just before the current file's first record
	broken error
	stats  Stats
	m      walMetrics
}

// walMetrics are the writer's registry handles; all nil (no-ops) until
// SetMetrics installs them.
type walMetrics struct {
	appends    *obs.Counter
	bytes      *obs.Counter
	fsyncs     *obs.Counter
	fsyncNanos *obs.Histogram
	resets     *obs.Counter
}

// SetMetrics attaches registry instrumentation: wal_appends_total,
// wal_append_bytes_total, wal_fsyncs_total, wal_resets_total counters
// and a wal_fsync_nanos latency histogram. The Stats counters keep
// working independently. Call before the writer is used; nil reg is a
// no-op (the disabled default).
func (w *Writer) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.m = walMetrics{
		appends:    reg.Counter("wal_appends_total"),
		bytes:      reg.Counter("wal_append_bytes_total"),
		fsyncs:     reg.Counter("wal_fsyncs_total"),
		fsyncNanos: reg.Histogram("wal_fsync_nanos"),
		resets:     reg.Counter("wal_resets_total"),
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
		w.seq = seq
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
	buf := make([]byte, recHeader+8+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(8+len(payload)))
	binary.LittleEndian.PutUint64(buf[recHeader:], seq)
	copy(buf[recHeader+8:], payload)
	sum := crc32.Checksum(buf[:4], crcTable)
	sum = crc32.Update(sum, crcTable, buf[recHeader:])
	binary.LittleEndian.PutUint32(buf[4:], sum)
	return buf
}

// Commit appends one record and makes it durable, returning its sequence
// number. On any write or sync failure the log is truncated back to its
// previous durable length, so the failed record cannot surface after a
// crash; the in-memory mutation it described must be rolled back by the
// caller.
func (w *Writer) Commit(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commitLocked([][]byte{payload})
}

// CommitBatch appends every payload as its own record — consecutive
// sequence numbers, one concatenated Write, one fsync — and returns the
// first record's sequence number (payload i has sequence first+i). The
// batch is atomic with respect to failure: if the write or sync fails
// the log is truncated back to its previous durable length, no sequence
// is consumed, and none of the batch's records can surface after a
// crash. (A crash during the sync itself may still persist a prefix of
// the batch's records — each is independently checksummed, so recovery
// replays the intact prefix exactly like any torn tail.)
func (w *Writer) CommitBatch(payloads [][]byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commitLocked(payloads)
}

func (w *Writer) commitLocked(payloads [][]byte) (uint64, error) {
	if w.broken != nil {
		return 0, fmt.Errorf("wal: writer is wedged by an earlier failure: %w", w.broken)
	}
	if len(payloads) == 0 {
		return 0, errors.New("wal: empty commit batch")
	}
	first := w.seq + 1
	var buf []byte
	for i, p := range payloads {
		if len(p) > maxRecord-8 {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(p), maxRecord)
		}
		buf = append(buf, EncodeRecord(first+uint64(i), p)...)
	}
	if _, err := w.f.Write(buf); err != nil {
		w.rollback()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.stats.Appends += uint64(len(payloads))
	w.m.appends.Add(uint64(len(payloads)))
	w.m.bytes.Add(uint64(len(buf)))
	if !w.NoSync {
		start := time.Now()
		if err := w.f.Sync(); err != nil {
			w.rollback()
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		w.stats.Syncs++
		w.m.fsyncs.Inc()
		w.m.fsyncNanos.Observe(time.Since(start).Nanoseconds())
	}
	w.seq += uint64(len(payloads))
	w.off += int64(len(buf))
	return first, nil
}

// Sync flushes outstanding appends (meaningful with NoSync commits).
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.stats.Syncs++
	w.m.fsyncs.Inc()
	w.m.fsyncNanos.Observe(time.Since(start).Nanoseconds())
	return nil
}

// rollback restores the log file to the last durable length after a
// failed append. If the cleanup itself fails the writer wedges: further
// commits are refused because the tail's content is unknown.
func (w *Writer) rollback() {
	w.f.Close()
	if err := w.fs.Truncate(w.path, w.off); err != nil {
		w.broken = fmt.Errorf("wal: truncate after failed append: %w", err)
		return
	}
	f, err := w.fs.OpenAppend(w.path)
	if err != nil {
		w.broken = fmt.Errorf("wal: reopen after failed append: %w", err)
		return
	}
	w.f = f
}

// Reset replaces the log with a fresh one whose records will start at
// nextSeq; called after a checkpoint has made the old records redundant.
// A failed reset leaves the writer on the old log, which stays correct
// (replay skips records at or below the checkpoint's sequence).
func (w *Writer) Reset(nextSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
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
	if err != nil {
		w.broken = fmt.Errorf("wal: reopen after reset: %w", err)
		return w.broken
	}
	w.f = nf
	w.off = headerSize
	if nextSeq > 0 {
		w.seq = nextSeq - 1
	}
	w.base = w.seq
	w.stats.Resets++
	w.m.resets.Inc()
	return nil
}

// SetNextSeq raises the next sequence number to at least seq; recovery
// uses it so records appended after a snapshot-only restart continue
// above the snapshot's high-water mark.
func (w *Writer) SetNextSeq(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > 0 && seq-1 > w.seq {
		w.seq = seq - 1
		if w.off == headerSize {
			w.base = w.seq
		}
	}
}

// LastSeq returns the sequence number of the last committed record (or
// the recovered high-water mark).
func (w *Writer) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
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

// Stats returns the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.LastSeq = w.seq
	s.Size = w.off
	return s
}

// RecordsSince reads back the durable records with sequence numbers
// strictly greater than from, serving the replication stream. It also
// returns the log's current last sequence and whether the request hit a
// gap: a checkpoint has truncated records after from, so the caller
// cannot catch up from the log alone and must bootstrap from a
// snapshot. Runs under the writer mutex against the durable prefix, so
// a concurrently flushing group-commit batch is either fully visible or
// not yet visible.
func (w *Writer) RecordsSince(from uint64) (recs []Record, lastSeq uint64, gap bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if from < w.base {
		return nil, w.seq, true, nil
	}
	if from >= w.seq {
		return nil, w.seq, false, nil
	}
	data, err := readAll(w.fs, w.path)
	if err != nil {
		return nil, w.seq, false, fmt.Errorf("wal: stream read: %w", err)
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
			return nil, w.seq, false, fmt.Errorf("wal: stream read: record at %d overruns durable end %d", o, w.off)
		}
		seq := binary.LittleEndian.Uint64(data[body:])
		if seq > from {
			recs = append(recs, Record{Seq: seq, Payload: data[body+8 : end]})
		}
		o = end
	}
	return recs, w.seq, false, nil
}

// Close closes the underlying file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
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
