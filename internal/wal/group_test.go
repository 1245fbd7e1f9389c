package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/faultio"
)

// appendN appends n numbered payloads without flushing any, so a flush
// of the last one writes the whole set as one batch.
func appendN(t *testing.T, w *Writer, n int) []uint64 {
	t.Helper()
	seqs := make([]uint64, n)
	for i := range seqs {
		seq, err := w.Append([]byte(fmt.Sprintf("op-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		seqs[i] = seq
	}
	return seqs
}

func TestGroupCommitSingleBatch(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()

	seqs := appendN(t, w, 8)
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("record %d got seq %d, want %d (append order must be seq order)", i, seq, i+1)
		}
	}
	for _, seq := range seqs {
		if err := w.Flush(seq); err != nil {
			t.Fatalf("flush %d: %v", seq, err)
		}
	}
	st := w.GroupStats()
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

// TestGroupCommitZeroWaitStillCommits: a lone record is flushed by its
// own Flush, with no collection window to sit out.
func TestGroupCommitZeroWaitStillCommits(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()
	seq, err := w.Commit([]byte("solo"))
	if err != nil || seq != 1 {
		t.Fatalf("Commit = %d, %v", seq, err)
	}
	if st := w.GroupStats(); st.Batches != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGroupCommitPendingInvisible: a record that is appended but not
// flushed is not part of the log any reader sees — RecordsSince,
// LastSeq, Size and Stats report the durable prefix only.
func TestGroupCommitPendingInvisible(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, fs, "wal")
	defer w.Close()
	if _, err := w.Commit([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	size := w.Size()
	seqs := appendN(t, w, 2)

	recs, last, gap, err := w.RecordsSince(0)
	if err != nil || gap || last != 1 || len(recs) != 1 {
		t.Fatalf("RecordsSince(0) with 2 pending = %d recs, last %d, gap %v, err %v; want the 1 durable record", len(recs), last, gap, err)
	}
	if got := w.LastSeq(); got != 1 {
		t.Fatalf("LastSeq with 2 pending = %d, want 1", got)
	}
	if got := w.Size(); got != size {
		t.Fatalf("Size with 2 pending = %d, want %d", got, size)
	}
	if st := w.Stats(); st.LastSeq != 1 || st.Size != size || st.Appends != 1 {
		t.Fatalf("Stats with 2 pending = %+v", st)
	}

	if err := w.Flush(seqs[1]); err != nil {
		t.Fatal(err)
	}
	if recs, last, _, _ := w.RecordsSince(0); last != 3 || len(recs) != 3 {
		t.Fatalf("after the flush RecordsSince(0) = %d recs, last %d; want 3", len(recs), last)
	}
	if st := w.Stats(); st.LastSeq != 3 || st.Size <= size || st.Appends != 3 {
		t.Fatalf("Stats after the flush = %+v", st)
	}
}

// TestGroupCommitAppendDuringFsync: while a flush's fsync is blocked,
// Append and the durable-prefix readers return at once; the record
// appended meanwhile is flushed by the next batch.
func TestGroupCommitAppendDuringFsync(t *testing.T) {
	g := newGateFS(false)
	_, w := collect(t, g, "wal")
	defer w.Close()

	g.arm()
	first, err := w.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- w.Flush(first) }()
	<-g.entered // the flush is inside its fsync

	appended := make(chan uint64, 1)
	go func() {
		seq, err := w.Append([]byte("second"))
		if err != nil {
			t.Error(err)
		}
		_ = w.LastSeq()
		_ = w.Stats()
		appended <- seq
	}()
	var second uint64
	select {
	case second = <-appended:
	case <-time.After(5 * time.Second):
		t.Error("Append waited for the fsync in flight")
		close(g.release)
		second = <-appended
		<-flushed
		return
	}
	if got := w.LastSeq(); got != 0 {
		t.Errorf("LastSeq during the first fsync = %d, want 0", got)
	}
	close(g.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(second); err != nil {
		t.Fatal(err)
	}
	if st := w.GroupStats(); st.Batches != 2 || st.Records != 2 {
		t.Fatalf("stats = %+v, want two batches of one", st)
	}
}

// TestGroupCommitConcurrentStress: concurrent writers on a device with
// a real flush cost share fsyncs with no collection window — records
// appended while a batch syncs go out together in the next one.
func TestGroupCommitConcurrentStress(t *testing.T) {
	fs := faultio.NewMemFS()
	_, w := collect(t, faultio.NewSlowFS(fs, 200*time.Microsecond), "wal")
	defer w.Close()

	const writers, per = 8, 25
	seen := make([][]uint64, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := w.Commit([]byte(fmt.Sprintf("w%d-%d", g, i)))
				if err != nil {
					t.Errorf("writer %d op %d: %v", g, i, err)
					return
				}
				seen[g] = append(seen[g], seq)
			}
		}()
	}
	wg.Wait()

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
	if syncs := w.Stats().Syncs; syncs >= writers*per {
		t.Fatalf("no shared fsync: %d fsyncs for %d records", syncs, writers*per)
	}
	if st := w.GroupStats(); st.Batches != w.Stats().Syncs || st.Records != writers*per {
		t.Fatalf("group stats %+v, want one batch per fsync covering all %d records", st, writers*per)
	}
}

// TestGroupCommitFailurePoisonsAndHeals: a failed write and a failed
// fsync each fail every pending record, leave the file at its durable
// length and refuse Append until Heal; the next record then reuses the
// first failed sequence.
func TestGroupCommitFailurePoisonsAndHeals(t *testing.T) {
	for _, kind := range []faultio.OpKind{faultio.OpWrite, faultio.OpSync} {
		t.Run(string(kind), func(t *testing.T) {
			mem := faultio.NewMemFS()
			// create() costs one write and one sync, the first commit one
			// of each; fail the second batch's, a torn write leaving 7
			// bytes behind.
			fs := faultio.NewFaulty(mem, faultio.Fault{Op: kind, N: 3, Mode: faultio.FailOp, Torn: 7})
			_, w := collect(t, fs, "wal")
			defer w.Close()
			if _, err := w.Commit([]byte("good")); err != nil {
				t.Fatal(err)
			}
			durable := w.Size()

			seqs := appendN(t, w, 4)
			for _, seq := range seqs {
				if err := w.Flush(seq); !errors.Is(err, faultio.ErrInjected) {
					t.Fatalf("record %d: err = %v, want the injected fault", seq, err)
				}
			}
			if n, _ := mem.Size("wal"); n != durable {
				t.Fatalf("file is %d bytes after the failed batch, want its durable %d", n, durable)
			}
			if w.Poisoned() == nil {
				t.Fatal("writer not poisoned after the failed batch")
			}
			if _, err := w.Append([]byte("rejected")); err == nil {
				t.Fatal("append on a poisoned writer succeeded")
			}
			if st := w.GroupStats(); st.Failures != 1 || st.Batches != 1 {
				t.Fatalf("stats = %+v", st)
			}

			if err := w.Heal(); err != nil {
				t.Fatalf("heal: %v", err)
			}
			if err := w.Flush(seqs[0]); err == nil {
				t.Fatal("a flush of a record Heal dropped succeeded")
			}
			seq, err := w.Commit([]byte("after-heal"))
			if err != nil {
				t.Fatalf("commit after heal: %v", err)
			}
			if seq != seqs[0] {
				t.Fatalf("seq after the failed batch = %d, want %d (a failed batch consumes no sequence)", seq, seqs[0])
			}
			recs, w2 := collect(t, mem, "wal")
			defer w2.Close()
			if len(recs) != 2 || string(recs[0].Payload) != "good" || string(recs[1].Payload) != "after-heal" {
				t.Fatalf("replayed %v, want the good and the post-heal record", recs)
			}
		})
	}
}

// gateFS lets the test hold a Sync open — so records can be appended
// behind an in-flight batch — then release it, as a failure if fail.
type gateFS struct {
	faultio.FS
	mu      sync.Mutex
	entered chan struct{} // closed when a gated Sync begins
	release chan struct{} // Sync blocks until closed
	fail    bool
	armed   bool
}

func newGateFS(fail bool) *gateFS {
	return &gateFS{FS: faultio.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{}), fail: fail}
}

// arm gates the next Sync.
func (g *gateFS) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
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

// TestGroupCommitPoisonFailsQueuedBehind: a record appended while the
// batch before it is failing its fsync fails with that batch — it was
// built on the failed records' state.
func TestGroupCommitPoisonFailsQueuedBehind(t *testing.T) {
	g := newGateFS(true)
	_, w := collect(t, g, "wal")
	defer w.Close()

	g.arm()
	first, err := w.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	firstErr := make(chan error, 1)
	go func() { firstErr <- w.Flush(first) }()
	<-g.entered // batch 1 is mid-fsync

	queued, err := w.Append([]byte("built-on-doomed"))
	if err != nil {
		t.Fatal(err)
	}
	close(g.release) // fsync fails

	if err := <-firstErr; !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("first flush err = %v", err)
	}
	if err := w.Flush(queued); err == nil {
		t.Fatal("a record appended behind a failed batch was flushed")
	}
	recs, w2 := collect(t, g.FS, "wal")
	defer w2.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records, want 0", len(recs))
	}
}

// TestGroupCommitAfterSyncRunsBeforeAck: AfterSync runs once per batch,
// after its fsync and before any of its waiters returns or sees the
// records durable.
func TestGroupCommitAfterSyncRunsBeforeAck(t *testing.T) {
	fs := faultio.NewFaulty(faultio.NewMemFS(), faultio.Fault{})
	_, w := collect(t, fs, "wal")
	defer w.Close()

	syncsBefore := fs.Counts()[faultio.OpSync]
	var returned atomic.Int32
	hooks := 0
	w.AfterSync = func() {
		hooks++
		if got := fs.Counts()[faultio.OpSync]; got != syncsBefore+1 {
			t.Errorf("AfterSync ran after %d fsyncs of the batch, want 1", got-syncsBefore)
		}
		if n := returned.Load(); n != 0 {
			t.Errorf("AfterSync ran after %d waiters returned", n)
		}
		if got := w.LastSeq(); got != 0 {
			t.Errorf("records durable (LastSeq %d) before AfterSync returned", got)
		}
	}
	seqs := appendN(t, w, 3)
	var wg sync.WaitGroup
	for _, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Flush(seq); err != nil {
				t.Error(err)
			}
			returned.Add(1)
		}()
	}
	wg.Wait()
	if hooks != 1 {
		t.Fatalf("AfterSync ran %d times, want once per batch", hooks)
	}
}

// TestCommitBatchRollback: a multi-record batch whose fsync fails
// consumes no sequence; after Heal the next batch starts at sequence 1
// and replay sees only it.
func TestCommitBatchRollback(t *testing.T) {
	mem := faultio.NewMemFS()
	fs := faultio.NewFaulty(mem, faultio.Fault{Op: faultio.OpSync, N: 2, Mode: faultio.FailOp})
	_, w := collect(t, fs, "wal")
	defer w.Close()
	failed := appendN(t, w, 3)
	if err := w.Flush(failed[len(failed)-1]); err == nil {
		t.Fatal("batch with failing fsync succeeded")
	}
	if w.LastSeq() != 0 {
		t.Fatalf("LastSeq after failed batch = %d, want 0", w.LastSeq())
	}
	if err := w.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	first, err := w.Append([]byte("x"))
	if err != nil {
		t.Fatalf("retry append: %v", err)
	}
	last, err := w.Append([]byte("y"))
	if err != nil {
		t.Fatalf("retry append: %v", err)
	}
	if err := w.Flush(last); err != nil {
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
