package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/faultio"
)

// enqueueN enqueues n numbered payloads before anyone waits, so the
// whole set (up to maxBatch) lands in one deterministic batch.
func enqueueN(gw *GroupWriter, n int) []*Ticket {
	ts := make([]*Ticket, n)
	for i := range ts {
		ts[i] = gw.Enqueue([]byte(fmt.Sprintf("op-%d", i)))
	}
	return ts
}

func waitAll(t *testing.T, ts []*Ticket) []uint64 {
	t.Helper()
	seqs := make([]uint64, len(ts))
	var wg sync.WaitGroup
	for i, tk := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq, err := tk.Wait()
			if err != nil {
				t.Errorf("ticket %d: %v", i, err)
			}
			seqs[i] = seq
		}()
	}
	wg.Wait()
	return seqs
}

func TestGroupCommitSingleBatch(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()
	gw := NewGroupWriter(w)

	ts := enqueueN(gw, 8)
	seqs := waitAll(t, ts)
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("ticket %d got seq %d, want %d (enqueue order must be seq order)", i, seq, i+1)
		}
	}
	st := gw.Stats()
	if st.Batches != 1 || st.Records != 8 || st.LargestBatch != 8 {
		t.Fatalf("stats = %+v, want one batch of 8", st)
	}
	if w.Stats().Syncs != 1 {
		t.Fatalf("syncs = %d, want 1 shared fsync", w.Stats().Syncs)
	}

	recs, w2 := collect(t, fs, "wal")
	defer w2.Close()
	if len(recs) != 8 {
		t.Fatalf("replayed %d records, want 8", len(recs))
	}
	for i, r := range recs {
		if string(r.Payload) != fmt.Sprintf("op-%d", i) {
			t.Fatalf("record %d payload %q", i, r.Payload)
		}
	}
}

// TestGroupCommitZeroWaitStillCommits: a lone commit is flushed by its
// own Wait, with no collection window to sit out.
func TestGroupCommitZeroWaitStillCommits(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()
	gw := NewGroupWriter(w)
	tk := gw.Enqueue([]byte("solo"))
	seq, err := tk.Wait()
	if err != nil || seq != 1 {
		t.Fatalf("Wait = %d, %v", seq, err)
	}
	if st := gw.Stats(); st.Batches != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGroupCommitConcurrentStress: concurrent writers on a device with
// a real flush cost coalesce into shared fsyncs with no collection
// window — commits queue behind the batch that is syncing.
func TestGroupCommitConcurrentStress(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, faultio.NewSlowFS(fs, 200*time.Microsecond), "wal")
	defer w.Close()
	gw := NewGroupWriter(w)

	const writers, per = 8, 25
	seen := make([][]uint64, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := gw.Enqueue([]byte(fmt.Sprintf("w%d-%d", g, i))).Wait()
				if err != nil {
					t.Errorf("writer %d op %d: %v", g, i, err)
					return
				}
				seen[g] = append(seen[g], seq)
			}
		}()
	}
	wg.Wait()
	gw.Drain()

	uniq := make(map[uint64]bool)
	for g := range seen {
		for i, seq := range seen[g] {
			if uniq[seq] {
				t.Fatalf("sequence %d acknowledged twice", seq)
			}
			uniq[seq] = true
			if i > 0 && seq <= seen[g][i-1] {
				t.Fatalf("writer %d saw non-monotonic seqs %d then %d", g, seen[g][i-1], seq)
			}
		}
	}
	if len(uniq) != writers*per {
		t.Fatalf("acknowledged %d unique seqs, want %d", len(uniq), writers*per)
	}
	recs, w2 := collect(t, fs, "wal")
	defer w2.Close()
	if len(recs) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*per)
	}
	if st := gw.Stats(); st.Batches >= writers*per {
		t.Fatalf("no coalescing: %d batches for %d records", st.Batches, writers*per)
	}
}

// TestGroupCommitBatchCap: a queue longer than maxBatch is flushed in
// capped batches, in enqueue order.
func TestGroupCommitBatchCap(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()
	gw := NewGroupWriter(w)
	seqs := waitAll(t, enqueueN(gw, maxBatch+1))
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("ticket %d got seq %d, want %d", i, seq, i+1)
		}
	}
	if st := gw.Stats(); st.Batches != 2 || st.LargestBatch != maxBatch {
		t.Fatalf("stats = %+v, want 2 batches, the largest of %d", st, maxBatch)
	}
}

func TestGroupCommitFailurePoisonsAndHeals(t *testing.T) {
	mem := faultio.NewMemFS()
	// The log's create() costs one sync; fail the next one (the batch).
	fs := faultio.NewFaulty(mem, faultio.Fault{Op: faultio.OpSync, N: 2, Mode: faultio.FailOp})
	_, w := collect(t, fs, "wal")
	defer w.Close()
	gw := NewGroupWriter(w)

	ts := enqueueN(gw, 4)
	for i, tk := range ts {
		if _, err := tk.Wait(); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("ticket %d: err = %v, want injected fault", i, err)
		}
	}
	if gw.Poisoned() == nil {
		t.Fatal("group not poisoned after batch failure")
	}
	if _, err := gw.Enqueue([]byte("rejected")).Wait(); err == nil {
		t.Fatal("enqueue on poisoned group succeeded")
	}
	if st := gw.Stats(); st.Failures != 1 || st.Batches != 0 {
		t.Fatalf("stats = %+v", st)
	}

	if err := gw.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	seq, err := gw.Enqueue([]byte("after-heal")).Wait()
	if err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	if seq != 1 {
		t.Fatalf("seq after failed batch = %d, want 1 (failed batch must not consume seqs)", seq)
	}
	recs, w2 := collect(t, fs, "wal")
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "after-heal" {
		t.Fatalf("replayed %v, want only the post-heal record", recs)
	}
}

// gateFS lets the test hold a Sync open so commits can queue up behind
// an in-flight batch, then release it as a failure.
type gateFS struct {
	faultio.FS
	mu      sync.Mutex
	entered chan struct{} // closed when a gated Sync begins
	release chan struct{} // Sync blocks until closed
	fail    bool
	armed   bool
}

func (g *gateFS) OpenAppend(name string) (faultio.File, error) {
	f, err := g.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

func (g *gateFS) Create(name string) (faultio.File, error) {
	f, err := g.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	faultio.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	f.g.mu.Lock()
	armed := f.g.armed
	f.g.armed = false
	f.g.mu.Unlock()
	if !armed {
		return f.File.Sync()
	}
	close(f.g.entered)
	<-f.g.release
	if f.g.fail {
		return faultio.ErrInjected
	}
	return f.File.Sync()
}

func TestGroupCommitPoisonFailsQueuedBehind(t *testing.T) {
	g := &gateFS{FS: faultio.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{}), fail: true}
	_, w := collect(t, g, "wal")
	defer w.Close()
	gw := NewGroupWriter(w)

	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
	first := gw.Enqueue([]byte("doomed"))
	firstErr := make(chan error, 1)
	go func() { _, err := first.Wait(); firstErr <- err }()
	<-g.entered // batch 1 is mid-fsync

	queued := gw.Enqueue([]byte("built-on-doomed"))
	close(g.release) // fsync fails

	if err := <-firstErr; !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("leader err = %v", err)
	}
	if _, err := queued.Wait(); err == nil {
		t.Fatal("commit queued behind a failed batch was acknowledged")
	}
	recs, w2 := collect(t, g.FS, "wal")
	defer w2.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records, want 0", len(recs))
	}
}

func TestGroupCommitAfterSyncRunsBeforeAck(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()
	gw := NewGroupWriter(w)

	var ts []*Ticket
	hookSawPending := false
	hooks := 0
	gw.AfterSync = func() {
		hooks++
		for _, tk := range ts {
			if !tk.Done() {
				hookSawPending = true
			}
		}
	}
	ts = enqueueN(gw, 3)
	waitAll(t, ts)
	if hooks != 1 {
		t.Fatalf("AfterSync ran %d times, want once per batch", hooks)
	}
	if !hookSawPending {
		t.Fatal("AfterSync ran after tickets were acknowledged")
	}
}

func TestCommitBatchRollback(t *testing.T) {
	mem := faultio.NewMemFS()
	fs := faultio.NewFaulty(mem, faultio.Fault{Op: faultio.OpSync, N: 2, Mode: faultio.FailOp})
	_, w := collect(t, fs, "wal")
	defer w.Close()
	if _, err := w.CommitBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")}); err == nil {
		t.Fatal("batch with failing fsync succeeded")
	}
	if w.LastSeq() != 0 {
		t.Fatalf("LastSeq after failed batch = %d, want 0", w.LastSeq())
	}
	first, err := w.CommitBatch([][]byte{[]byte("x"), []byte("y")})
	if err != nil {
		t.Fatalf("retry batch: %v", err)
	}
	if first != 1 {
		t.Fatalf("first seq = %d, want 1", first)
	}
	recs, w2 := collect(t, fs, "wal")
	defer w2.Close()
	if len(recs) != 2 || string(recs[0].Payload) != "x" || string(recs[1].Payload) != "y" {
		t.Fatalf("replayed %v", recs)
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

func TestGroupCommitDrain(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()
	gw := NewGroupWriter(w)
	ts := enqueueN(gw, 6)
	done := make(chan struct{})
	go func() { waitAll(t, ts); close(done) }()
	gw.Drain()
	for i, tk := range ts {
		if !tk.Done() {
			t.Fatalf("Drain returned with ticket %d pending", i)
		}
	}
	<-done
}
