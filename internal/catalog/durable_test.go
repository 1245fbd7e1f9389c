package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// runWorkload applies the full crash workload, failing the test on any
// error.
func runWorkload(t *testing.T, c *Catalog) {
	t.Helper()
	for _, op := range crashWorkload(t) {
		if err := op.run(c); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
}

// TestRecoveryReplayProbesIndexes: replaying a delete locates its rows
// through the table's indexes, so recovery reads a bounded number of
// rows however large the checkpointed corpus is. A table scan per
// replayed row operation read 1.3M rows here.
func TestRecoveryReplayProbesIndexes(t *testing.T) {
	const ndocs, ndeletes = 800, 10
	mem := faultio.NewMemFS()
	dopts := DurabilityOptions{FS: mem, WALPath: crashWAL}
	c, err := OpenDurable(xmlschema.MustLEAD(), Options{AutoRegister: true}, dopts)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*xmldoc.Node, ndocs)
	for i := range docs {
		if docs[i], err = xmldoc.ParseString(fig3Variant(t, fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]int64, ndocs)
	for i, doc := range docs {
		if ids[i], err = c.Ingest("scientist", doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The newest documents: their rows sit at the end of every table.
	for _, id := range ids[ndocs-ndeletes:] {
		if ok, err := c.Delete(id); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
	}
	want := stateFingerprint(c)
	// Crash: abandon c without Close, whose checkpoint would empty the log.

	reg := obs.NewRegistry()
	rec, err := OpenDurable(xmlschema.MustLEAD(), Options{AutoRegister: true, Metrics: reg}, dopts)
	if err != nil {
		t.Fatal(err)
	}
	var reads float64
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, "relstore_row_reads_total") {
			reads += v
		}
	}
	t.Logf("recovery of %d deletes over %d docs read %.0f rows", ndeletes, ndocs, reads)
	if reads >= 100_000 {
		t.Errorf("recovery read %.0f rows, want < 100000", reads)
	}
	if got := stateFingerprint(rec); got != want {
		t.Fatalf("recovered state diverges:\n%s", diffFingerprint(want, got))
	}
}

func TestDurableCheckpointBoundsLog(t *testing.T) {
	mem := faultio.NewMemFS()
	c, err := openDurableLEAD(t, mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c)
	st := c.DurabilityStats()
	if st.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoints ran: %+v", st)
	}
	if st.SinceCheckpoint >= 2 {
		t.Fatalf("uncheckpointed records accumulated: %+v", st)
	}
	if st.LastCheckpointError != "" {
		t.Fatalf("checkpoint error: %s", st.LastCheckpointError)
	}
	// Close checkpoints and resets; the log shrinks to its bare header.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := mem.Size(crashWAL); n != 8 {
		t.Fatalf("log size after close = %d, want 8 (header only)", n)
	}
	// The snapshot alone reproduces the state.
	rec, err := openDurableLEAD(t, mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracleLEAD(t)
	runWorkload(t, oracle)
	if got, want := stateFingerprint(rec), stateFingerprint(oracle); got != want {
		t.Fatalf("state after checkpoint-only recovery diverges:\n%s", diffFingerprint(want, got))
	}
}

// TestFaultTransientSyncRollsBack: a single failing fsync must surface
// as ErrDurability, leave no trace of the mutation in memory, and not
// poison later mutations once the fault clears.
func TestFaultTransientSyncRollsBack(t *testing.T) {
	for _, kind := range []faultio.OpKind{faultio.OpWrite, faultio.OpSync} {
		t.Run(string(kind), func(t *testing.T) {
			// Counting run: how many ops of this kind happen before the
			// first ingest (workload step 7)?
			ops := crashWorkload(t)
			faulty := faultio.NewFaulty(faultio.NewMemFS(), faultio.Fault{})
			c, err := openDurableLEAD(t, faulty, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops[:6] {
				if err := op.run(c); err != nil {
					t.Fatal(err)
				}
			}
			n := faulty.Counts()[kind]

			// Real run: the (n+1)th op of the kind is the ingest's commit.
			mem := faultio.NewMemFS()
			faulty = faultio.NewFaulty(mem, faultio.Fault{Op: kind, N: n + 1, Mode: faultio.FailOp})
			c, err = openDurableLEAD(t, faulty, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops[:6] {
				if err := op.run(c); err != nil {
					t.Fatal(err)
				}
			}
			before := stateFingerprint(c)
			_, err = c.IngestXML("scientist", xmlschema.Figure3Document)
			if !errors.Is(err, ErrDurability) {
				t.Fatalf("ingest under fault = %v, want ErrDurability", err)
			}
			if got := stateFingerprint(c); got != before {
				t.Fatalf("failed ingest left state behind:\n%s", diffFingerprint(before, got))
			}
			// The fault was transient: the retry must succeed and be durable.
			if _, err := c.IngestXML("scientist", xmlschema.Figure3Document); err != nil {
				t.Fatalf("retry after transient fault: %v", err)
			}
			mem.Crash()
			rec, err := openDurableLEAD(t, mem, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rec.ObjectCount() != 1 {
				t.Fatalf("recovered %d objects, want 1", rec.ObjectCount())
			}
		})
	}
}

// TestFaultWedgedWriterKeepsAckedState: when the post-failure cleanup
// also fails (sticky crash), further mutations are refused but every
// acknowledged object remains readable.
func TestFaultWedgedWriterKeepsAckedState(t *testing.T) {
	ops := crashWorkload(t)
	faulty := faultio.NewFaulty(faultio.NewMemFS(), faultio.Fault{})
	c, err := openDurableLEAD(t, faulty, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:7] { // through ingest-1
		if err := op.run(c); err != nil {
			t.Fatal(err)
		}
	}
	n := faulty.Counts()[faultio.OpWrite]

	mem := faultio.NewMemFS()
	faulty = faultio.NewFaulty(mem, faultio.Fault{Op: faultio.OpWrite, N: n + 1, Mode: faultio.CrashOp})
	c, err = openDurableLEAD(t, faulty, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:7] {
		if err := op.run(c); err != nil {
			t.Fatal(err)
		}
	}
	before := stateFingerprint(c)
	if _, err := c.IngestXML("scientist", fig3Variant(t, "9")); !errors.Is(err, ErrDurability) {
		t.Fatalf("ingest on dead disk = %v, want ErrDurability", err)
	}
	if _, err := c.IngestXML("scientist", fig3Variant(t, "10")); !errors.Is(err, ErrDurability) {
		t.Fatalf("second ingest on dead disk = %v, want ErrDurability", err)
	}
	if got := stateFingerprint(c); got != before {
		t.Fatalf("failed mutations altered acknowledged state:\n%s", diffFingerprint(before, got))
	}
	if doc, err := c.FetchDocument(1); err != nil || doc == nil {
		t.Fatalf("read of acknowledged object after disk death: %v", err)
	}
}

// TestFaultConcurrentMutationsAndReads exercises the durability funnel
// under the race detector: concurrent writers with occasional injected
// transient faults against concurrent readers, then a crash-recovery
// equivalence check against a serial oracle of the acknowledged ops.
func TestFaultConcurrentMutationsAndReads(t *testing.T) {
	mem := faultio.NewMemFS()
	c, err := openDurableLEAD(t, mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Register the definitions up front (single-writer phase).
	ops := crashWorkload(t)
	for _, op := range ops[:6] {
		if err := op.run(c); err != nil {
			t.Fatal(err)
		}
	}

	const writers, perWriter = 4, 8
	var mu sync.Mutex
	acked := map[string]bool{} // dx value -> acknowledged
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				dx := fmt.Sprintf("%d", 1000+w*100+i)
				if _, err := c.IngestXML("scientist", fig3Variant(t, dx)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				acked[dx] = true
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				for _, o := range c.Objects() {
					if _, err := c.FetchDocument(o.ID); err != nil {
						t.Errorf("reader: fetch %d: %v", o.ID, err)
						return
					}
				}
				c.DurabilityStats()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	mem.Crash()
	rec, err := openDurableLEAD(t, mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.ObjectCount(), writers*perWriter; got != want {
		t.Fatalf("recovered %d objects, want %d", got, want)
	}
	// Every acknowledged document must reconstruct with its dx intact.
	seen := map[string]bool{}
	for _, o := range rec.Objects() {
		doc, err := rec.FetchDocument(o.ID)
		if err != nil {
			t.Fatalf("fetch %d: %v", o.ID, err)
		}
		for _, a := range doc.FindAll("attr") {
			if a.ChildText("attrlabl") == "dx" {
				seen[a.ChildText("attrv")] = true
			}
		}
	}
	for dx := range acked {
		if !seen[dx] {
			t.Errorf("acknowledged document dx=%s lost in recovery", dx)
		}
	}
}

// TestEmptyMutationPublishesNothing: a mutation that changes no row —
// here a repeated AddToCollection — aborts on a durable catalog and on
// one without a log alike, so the published epoch, which stamps every
// cache entry, does not move.
func TestEmptyMutationPublishesNothing(t *testing.T) {
	durable, err := openDurableLEAD(t, faultio.NewMemFS(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := crashWorkload(t)
	for name, c := range map[string]*Catalog{"open": newOracleLEAD(t), "durable": durable} {
		for _, op := range ops[:10] { // through add-member-1
			if err := op.run(c); err != nil {
				t.Fatalf("%s: %s: %v", name, op.name, err)
			}
		}
		gen := c.DB.Generation()
		if err := c.AddToCollection(1, 1); err != nil {
			t.Fatalf("%s: repeated AddToCollection: %v", name, err)
		}
		if got := c.DB.Generation(); got != gen {
			t.Errorf("%s: repeated AddToCollection moved the epoch %d -> %d", name, gen, got)
		}
	}
}

// TestGroupCommitAckDoesNotWaitForNextBuild: a writer whose batch is
// durable publishes and returns without the catalog lock, so the next
// writer's build, which holds that lock, cannot delay the
// acknowledgement. Writer B is parked inside its mutation once A's
// record is synced; A's ingest must still return, already visible.
func TestGroupCommitAckDoesNotWaitForNextBuild(t *testing.T) {
	c, err := openDurableLEAD(t, faultio.NewMemFS(), 0)
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	bDone := make(chan error, 1)
	c.dur.w.AfterSync = func() {
		go func() {
			bDone <- c.mutate(func() error {
				close(parked)
				<-release
				return nil
			})
		}()
		<-parked // B holds the build lock; A's batch is durable
	}
	aDone := make(chan error, 1)
	go func() {
		_, err := c.IngestXML("scientist", xmlschema.Figure3Document)
		aDone <- err
	}()
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the acknowledgement waited for the next writer's build")
	}
	if n := c.ObjectCount(); n != 1 {
		t.Errorf("acknowledged ingest not published: %d objects", n)
	}
	close(release)
	if err := <-bDone; err != nil {
		t.Fatalf("parked writer: %v", err)
	}
}

// TestFaultCorruptWALRefusedAtBoot: rotted interior log bytes must stop
// recovery rather than silently load partial history.
func TestFaultCorruptWALRefusedAtBoot(t *testing.T) {
	mem := faultio.NewMemFS()
	c, err := openDurableLEAD(t, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c)
	data := mem.Bytes(crashWAL)
	if len(data) < 100 {
		t.Fatalf("log unexpectedly small: %d bytes", len(data))
	}
	mutated := append([]byte(nil), data...)
	mutated[len(data)/2] ^= 0x20 // interior record body
	mem.SetBytes(crashWAL, mutated)
	if _, err := openDurableLEAD(t, mem, 0); err == nil {
		t.Fatal("recovery accepted a corrupt log interior")
	}
}

// TestDurableSnapshotCompatibleWithPlainLoad: a durable catalog's
// checkpoint snapshot loads alone, with no log beside it.
func TestDurableSnapshotCompatibleWithPlainLoad(t *testing.T) {
	mem := faultio.NewMemFS()
	c, err := openDurableLEAD(t, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := openSnapshot(mem.Bytes(crashWAL + ".snap"))
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracleLEAD(t)
	runWorkload(t, oracle)
	if got, want := stateFingerprint(loaded), stateFingerprint(oracle); got != want {
		t.Fatalf("plain load of checkpoint snapshot diverges:\n%s", diffFingerprint(want, got))
	}
}

// gatedWriter blocks its first Write until release is closed, or until
// timeout passes, which it records: the snapshot writer is still inside
// ReplicationSnapshot while the test runs a mutation.
type gatedWriter struct {
	writing  chan struct{} // closed on the first Write
	release  chan struct{}
	timeout  time.Duration
	timedOut bool
	buf      bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	if w.buf.Len() == 0 {
		close(w.writing)
		select {
		case <-w.release:
		case <-time.After(w.timeout):
			w.timedOut = true
		}
	}
	return w.buf.Write(p)
}

// TestReplicationSnapshotDoesNotBlockWriters: a replica bootstrap whose
// reader stalls must not stall ingest. The catalog lock covers only the
// pin, so an Ingest completes while the snapshot is mid-write, and the
// snapshot holds the pinned state, not the later ingest.
func TestReplicationSnapshotDoesNotBlockWriters(t *testing.T) {
	c, err := openDurableLEAD(t, faultio.NewMemFS(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ingestFig3(t, c)
	before, seq := c.ObjectCount(), c.PublishedSeq()

	w := &gatedWriter{writing: make(chan struct{}), release: make(chan struct{}), timeout: 5 * time.Second}
	type result struct {
		seq uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		s, err := c.ReplicationSnapshot(w)
		done <- result{s, err}
	}()
	<-w.writing
	if _, err := c.IngestXML("scientist", fig3Variant(t, "77")); err != nil {
		t.Fatal(err)
	}
	close(w.release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if w.timedOut {
		t.Fatalf("Ingest waited %v for the snapshot writer: ReplicationSnapshot held the catalog lock while writing", w.timeout)
	}
	if res.seq != seq {
		t.Fatalf("snapshot watermark %d, want the pinned %d", res.seq, seq)
	}
	f, err := LoadFollower(xmlschema.MustLEAD(), Options{}, &w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ObjectCount(); got != before {
		t.Fatalf("snapshot holds %d objects, want the %d pinned before the ingest", got, before)
	}
}

// TestOldFormatsRefusedByVersion: a data directory from an older
// release — the gob-format snapshot container HCSNAP02 and log HCWAL01,
// or the physical row-op log HCWAL02 — is refused at open with an error
// naming the version found and the one expected, not misread or
// reported as corruption.
func TestOldFormatsRefusedByVersion(t *testing.T) {
	oldSnap := append([]byte("HCSNAP02"), make([]byte, 12)...)
	cases := []struct {
		name, path string
		data       []byte
		want       string
	}{
		{"snapshot", crashWAL + ".snap", oldSnap, "snapshot format HCSNAP02, this build reads HCSNAP03"},
		{"log", crashWAL, []byte("HCWAL01\n"), "log format HCWAL01, this build reads HCWAL03"},
		{"physical log", crashWAL, []byte("HCWAL02\n"), "log format HCWAL02, this build reads HCWAL03"},
	}
	for _, tc := range cases {
		mem := faultio.NewMemFS()
		mem.SetBytes(tc.path, tc.data)
		if _, err := openDurableLEAD(t, mem, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: OpenDurable err = %v, want %q", tc.name, err, tc.want)
		}
	}
	_, err := LoadFollower(xmlschema.MustLEAD(), Options{}, bytes.NewReader(oldSnap))
	if want := cases[0].want; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("LoadFollower err = %v, want %q", err, want)
	}
}

// TestDurableRequiresWALPath documents the configuration contract.
func TestDurableRequiresWALPath(t *testing.T) {
	_, err := OpenDurable(xmlschema.MustLEAD(), Options{}, DurabilityOptions{FS: faultio.NewMemFS()})
	if err == nil {
		t.Fatal("OpenDurable accepted an empty WAL path")
	}
}

// openSnapshot recovers a catalog from snap alone: OpenDurable over a
// fresh MemFS holding it as the checkpoint of a log that does not exist
// yet, the read of exactly the file's size that recovery takes.
func openSnapshot(snap []byte) (*Catalog, error) {
	mem := faultio.NewMemFS()
	mem.SetBytes("c.wal.snap", snap)
	return OpenDurable(xmlschema.MustLEAD(), Options{}, DurabilityOptions{FS: mem, WALPath: "c.wal"})
}

// loaders are the two ways a snapshot is read: Load from a plain reader
// (read to its end, bounded) and OpenDurable's recovery from a file
// (read into one buffer of the file's size).
var loaders = map[string]func(snap []byte) (*Catalog, error){
	"Load": func(snap []byte) (*Catalog, error) {
		return Load(xmlschema.MustLEAD(), Options{}, bytes.NewReader(snap))
	},
	"OpenDurable": openSnapshot,
}

// TestFaultSnapshotTruncationRefused: Load and OpenDurable must error on
// every strict prefix of a snapshot — never panic, never half-load.
func TestFaultSnapshotTruncationRefused(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for name, load := range loaders {
		for cut := 0; cut < len(full); cut++ {
			if _, err := load(full[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes loaded successfully", name, cut, len(full))
			}
		}
		if _, err := load(full); err != nil {
			t.Fatalf("%s: intact snapshot refused: %v", name, err)
		}
	}
}

// TestFaultSnapshotBitFlipRefused: a single flipped bit anywhere in the
// snapshot must be detected by the container checksum (or header
// validation) — never panic, never half-load.
func TestFaultSnapshotBitFlipRefused(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for off := 0; off < len(full); off++ {
		mutated := append([]byte(nil), full...)
		mutated[off] ^= 0x10
		if _, err := Load(xmlschema.MustLEAD(), Options{}, bytes.NewReader(mutated)); err == nil {
			t.Fatalf("bit flip at offset %d of %d loaded successfully", off, len(full))
		}
	}
}
