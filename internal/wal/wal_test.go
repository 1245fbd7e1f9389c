package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/faultio"
)

func collect(t *testing.T, fs faultio.FS, path string) ([]Record, *Writer) {
	t.Helper()
	var recs []Record
	w, err := Open(fs, path, func(r Record) error {
		recs = append(recs, Record{Seq: r.Seq, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return recs, w
}

func TestCommitAndReplay(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	for i := 0; i < 5; i++ {
		seq, err := w.Commit([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	w.Close()
	recs, w2 := collect(t, fs, "wal")
	defer w2.Close()
	if len(recs) != 5 {
		t.Fatalf("replayed %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || string(r.Payload) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("record %d = {%d %q}", i, r.Seq, r.Payload)
		}
	}
	if w2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d", w2.LastSeq())
	}
	if seq, err := w2.Commit([]byte("after")); err != nil || seq != 6 {
		t.Fatalf("commit after reopen: %d, %v", seq, err)
	}
}

func TestCrashLosesOnlyUnsynced(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	if _, err := w.Commit([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	w.NoSync = true
	if _, err := w.Commit([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	recs, w2 := collect(t, fs, "wal")
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "durable" {
		t.Fatalf("recovered %v", recs)
	}
}

// TestTornTailEveryOffset truncates the log at every byte length and
// asserts recovery always succeeds with a prefix of the records.
func TestTornTailEveryOffset(t *testing.T) {
	base := faultio.NewMemFS()
	_, w := collect(t, base, "wal")
	payloads := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("c")}
	var ends []int64 // durable size after each commit
	for _, p := range payloads {
		if _, err := w.Commit(p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Size())
	}
	full := base.Bytes("wal")
	for cut := 0; cut <= len(full); cut++ {
		fs := faultio.NewMemFS()
		fs.SetBytes("wal", full[:cut])
		recs, w2 := collect(t, fs, "wal")
		// Expected record count: how many commits fit entirely below cut.
		want := 0
		for _, e := range ends {
			if int64(cut) >= e {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), want)
		}
		for i, r := range recs {
			if string(r.Payload) != string(payloads[i]) {
				t.Fatalf("cut %d: record %d = %q", cut, i, r.Payload)
			}
		}
		// The log is usable after tail truncation.
		if _, err := w2.Commit([]byte("resume")); err != nil {
			t.Fatalf("cut %d: commit after recovery: %v", cut, err)
		}
		w2.Close()
	}
}

// TestCorruptInteriorRefused flips one byte in every position of the
// first record's extent (while later records exist) and requires Open to
// fail rather than drop acknowledged history.
func TestCorruptInteriorRefused(t *testing.T) {
	base := faultio.NewMemFS()
	_, w := collect(t, base, "wal")
	if _, err := w.Commit([]byte("first-record")); err != nil {
		t.Fatal(err)
	}
	firstEnd := w.Size()
	if _, err := w.Commit([]byte("second-record")); err != nil {
		t.Fatal(err)
	}
	full := base.Bytes("wal")
	fileLen := len(full)
	for off := headerSize; off < int(firstEnd); off++ {
		for _, bit := range []byte{0x01, 0x40} {
			mutated := append([]byte(nil), full...)
			mutated[off] ^= bit
			// A flipped length byte claiming an extent past EOF reads as a
			// torn tail — undetectable by design; skip those combinations.
			if off < headerSize+4 {
				length := int(mutated[headerSize]) | int(mutated[headerSize+1])<<8 |
					int(mutated[headerSize+2])<<16 | int(mutated[headerSize+3])<<24
				if headerSize+recHeader+length > fileLen {
					continue
				}
			}
			fs := faultio.NewMemFS()
			fs.SetBytes("wal", mutated)
			_, err := Open(fs, "wal", nil)
			if err == nil {
				t.Fatalf("offset %d bit %#x: corrupt interior accepted", off, bit)
			}
		}
	}
}

// TestCorruptLengthInExtentRefused flips the length field to a smaller
// in-file value; the length-covering checksum must catch it.
func TestCorruptLengthInExtentRefused(t *testing.T) {
	base := faultio.NewMemFS()
	_, w := collect(t, base, "wal")
	_, _ = w.Commit([]byte("first-record"))
	_, _ = w.Commit([]byte("second-record"))
	full := base.Bytes("wal")
	mutated := append([]byte(nil), full...)
	mutated[headerSize] ^= 0x04 // 20 -> 16: extent stays inside the file
	fs := faultio.NewMemFS()
	fs.SetBytes("wal", mutated)
	if _, err := Open(fs, "wal", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestTailBitFlipTruncates: a checksum-failing final record is
// indistinguishable from a torn append and is dropped, keeping earlier
// records.
func TestTailBitFlipTruncates(t *testing.T) {
	base := faultio.NewMemFS()
	_, w := collect(t, base, "wal")
	_, _ = w.Commit([]byte("keep"))
	keepEnd := w.Size()
	_, _ = w.Commit([]byte("flip"))
	full := base.Bytes("wal")
	mutated := append([]byte(nil), full...)
	mutated[len(mutated)-1] ^= 0x01
	fs := faultio.NewMemFS()
	fs.SetBytes("wal", mutated)
	recs, w2 := collect(t, fs, "wal")
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "keep" {
		t.Fatalf("recovered %v", recs)
	}
	if n, _ := fs.Size("wal"); n != keepEnd {
		t.Fatalf("file not truncated: %d != %d", n, keepEnd)
	}
}

func TestCommitFailureRollsBackTail(t *testing.T) {
	for _, kind := range []faultio.OpKind{faultio.OpWrite, faultio.OpSync} {
		t.Run(string(kind), func(t *testing.T) {
			mem := faultio.NewMemFS()
			// Fault the op belonging to the 2nd commit: create+header cost
			// 1 write + 1 sync, each commit 1 write + 1 sync.
			faulty := faultio.NewFaulty(mem, faultio.Fault{Op: kind, N: 3, Mode: faultio.FailOp, Torn: 7})
			_, w := collect(t, faulty, "wal")
			if _, err := w.Commit([]byte("good")); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Commit([]byte("fails")); !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("want injected failure, got %v", err)
			}
			// The failure poisons the writer until Heal; the transient
			// fault cleared, so the healed log takes the retry at the
			// failed record's sequence.
			if _, err := w.Commit([]byte("refused")); err == nil {
				t.Fatal("commit on a poisoned writer succeeded")
			}
			if err := w.Heal(); err != nil {
				t.Fatal(err)
			}
			if seq, err := w.Commit([]byte("retry")); err != nil || seq != 2 {
				t.Fatalf("retry commit: seq %d, err %v", seq, err)
			}
			w.Close()
			recs, w2 := collect(t, mem, "wal")
			defer w2.Close()
			if len(recs) != 2 || string(recs[0].Payload) != "good" || string(recs[1].Payload) != "retry" {
				t.Fatalf("recovered %v", recs)
			}
		})
	}
}

func TestResetStartsFreshLog(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	for i := 0; i < 3; i++ {
		_, _ = w.Commit([]byte("old"))
	}
	if err := w.Reset(4); err != nil {
		t.Fatal(err)
	}
	if w.Size() != headerSize {
		t.Fatalf("size after reset = %d", w.Size())
	}
	if seq, err := w.Commit([]byte("new")); err != nil || seq != 4 {
		t.Fatalf("post-reset commit: %d, %v", seq, err)
	}
	w.Close()
	recs, w2 := collect(t, fs, "wal")
	defer w2.Close()
	if len(recs) != 1 || recs[0].Seq != 4 || string(recs[0].Payload) != "new" {
		t.Fatalf("recovered %v", recs)
	}
}

func TestSetNextSeq(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	w.SetNextSeq(100)
	if seq, err := w.Commit([]byte("x")); err != nil || seq != 100 {
		t.Fatalf("seq = %d, %v", seq, err)
	}
	w.SetNextSeq(50) // must never move backwards
	if seq, err := w.Commit([]byte("y")); err != nil || seq != 101 {
		t.Fatalf("seq = %d, %v", seq, err)
	}
}

func TestBadMagicRefused(t *testing.T) {
	fs := faultio.NewMemFS()
	fs.SetBytes("wal", []byte("NOTAWAL!with trailing data"))
	if _, err := Open(fs, "wal", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestShortHeaderRecreated(t *testing.T) {
	fs := faultio.NewMemFS()
	fs.SetBytes("wal", []byte("HCW")) // crash during creation
	recs, w := collect(t, fs, "wal")
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("records from a torn header: %v", recs)
	}
	if _, err := w.Commit([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestRecordsSince(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.Commit([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	recs, last, gap, err := w.RecordsSince(2)
	if err != nil || gap {
		t.Fatalf("RecordsSince(2): gap=%v err=%v", gap, err)
	}
	if last != 5 || len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("RecordsSince(2) = %v, last=%d", recs, last)
	}
	if recs, _, gap, _ := w.RecordsSince(5); gap || len(recs) != 0 {
		t.Fatalf("RecordsSince(5) = %v, gap=%v", recs, gap)
	}
	if recs, _, gap, _ := w.RecordsSince(0); gap || len(recs) != 5 {
		t.Fatalf("RecordsSince(0) = %d recs, gap=%v", len(recs), gap)
	}

	// A checkpoint truncates the log; seqs at or below the reset point
	// are gone, and asking for them must report a gap, not silence.
	if err := w.Reset(6); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit([]byte("r5")); err != nil {
		t.Fatal(err)
	}
	if recs, last, gap, err := w.RecordsSince(5); gap || err != nil || len(recs) != 1 || recs[0].Seq != 6 || last != 6 {
		t.Fatalf("RecordsSince(5) after reset = %v, last=%d, gap=%v, err=%v", recs, last, gap, err)
	}
	if _, _, gap, _ := w.RecordsSince(3); !gap {
		t.Fatal("RecordsSince(3) after reset must report a gap")
	}
	if _, _, gap, _ := w.RecordsSince(0); !gap {
		t.Fatal("RecordsSince(0) after reset must report a gap")
	}
}

func TestDecodeFramesTornAtEveryOffset(t *testing.T) {
	var stream []byte
	for i := 1; i <= 3; i++ {
		stream = append(stream, EncodeRecord(uint64(i), []byte(fmt.Sprintf("payload-%d", i)))...)
	}
	full, err := DecodeFrames(stream)
	if err != nil || len(full) != 3 {
		t.Fatalf("full decode: %d recs, %v", len(full), err)
	}
	for cut := 0; cut <= len(stream); cut++ {
		recs, err := DecodeFrames(stream[:cut])
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, full[i].Payload) {
				t.Fatalf("cut %d: record %d = {%d %q}", cut, i, r.Seq, r.Payload)
			}
		}
		// A tear can only hide whole trailing frames, never corrupt
		// the decoded prefix.
		if want := 3; cut < len(stream) && len(recs) > want {
			t.Fatalf("cut %d decoded %d records", cut, len(recs))
		}
	}
}

func TestDecodeFramesInteriorCorruption(t *testing.T) {
	var stream []byte
	for i := 1; i <= 3; i++ {
		stream = append(stream, EncodeRecord(uint64(i), []byte(fmt.Sprintf("payload-%d", i)))...)
	}
	frameLen := len(stream) / 3
	bad := append([]byte(nil), stream...)
	bad[frameLen+recHeader+9] ^= 0x01 // flip a payload bit in frame 2
	recs, err := DecodeFrames(bad)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption: err = %v, want ErrCorrupt", err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("decoded %v before corruption", recs)
	}
}
