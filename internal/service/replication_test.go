package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/wal"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// newDurableServer serves a durable catalog from an in-memory
// filesystem, for the replication endpoint tests.
func newDurableServer(t *testing.T, fs faultio.FS, every int) (*httptest.Server, *catalog.Catalog) {
	t.Helper()
	cat, err := catalog.OpenDurable(xmlschema.MustLEAD(), catalog.Options{}, catalog.DurabilityOptions{
		FS: fs, WALPath: "svc.wal", CheckpointEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cat).Handler())
	t.Cleanup(ts.Close)
	return ts, cat
}

func TestHealthzOK(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var resp map[string]any
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["status"] != "ok" {
		t.Fatalf("status = %v, want ok", resp["status"])
	}
}

func TestHealthzWedged(t *testing.T) {
	// A crash-mode fault wedges the durability layer: the first sync
	// fails, every retry fails, heal cannot recover the writer.
	faulty := faultio.NewFaulty(faultio.NewMemFS(), faultio.Fault{
		Op: faultio.OpSync, N: 3, Mode: faultio.CrashOp,
	})
	ts, cat := newDurableServer(t, faulty, 1000)
	for i := 0; i < 5; i++ {
		cat.CreateCollection(fmt.Sprintf("c%d", i), "ops", 0)
	}
	if cat.Wedged() == nil {
		t.Fatal("catalog did not wedge; the test premise is gone")
	}
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz on wedged catalog: %d %s", code, body)
	}
	var resp map[string]any
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["status"] != "wedged" || resp["error"] == "" {
		t.Fatalf("resp = %v, want status=wedged with error", resp)
	}
}

// fakeReplica satisfies ReplicaSource with a pinned lag, so the
// staleness contract is testable without a live tailer.
type fakeReplica struct {
	cat              *catalog.Catalog
	applied, primary uint64
}

func (f *fakeReplica) Catalog() *catalog.Catalog { return f.cat }
func (f *fakeReplica) AppliedSeq() uint64        { return f.applied }
func (f *fakeReplica) PrimarySeq() uint64        { return f.primary }

func newReplicaServer(t *testing.T, applied, primary, maxLag uint64) (*httptest.Server, *fakeReplica) {
	t.Helper()
	cat, err := catalog.OpenFollower(xmlschema.MustLEAD(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fr := &fakeReplica{cat: cat, applied: applied, primary: primary}
	srv := New(nil)
	srv.Replica = fr
	srv.MaxLag = maxLag
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, fr
}

func TestReplicaStalenessHeaderAndLagRefusal(t *testing.T) {
	// Within the bound: reads succeed and carry the cursor.
	ts, _ := newReplicaServer(t, 7, 9, 5)
	resp, err := http.Get(ts.URL + "/objects")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read within lag bound: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Staleness-Seq"); got != "7" {
		t.Fatalf("X-Staleness-Seq = %q, want 7", got)
	}

	// Beyond the bound: 503, header still present.
	ts2, _ := newReplicaServer(t, 1, 9, 5)
	resp, err = http.Get(ts2.URL + "/objects")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read beyond lag bound: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Staleness-Seq"); got != "1" {
		t.Fatalf("X-Staleness-Seq = %q, want 1", got)
	}

	// healthz names the condition — and, being outside the staleness
	// middleware, still answers 503-with-body rather than being refused.
	code, body := get(t, ts2.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var hr map[string]any
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatal(err)
	}
	if hr["status"] != "replica-lagging" {
		t.Fatalf("status = %v, want replica-lagging", hr["status"])
	}
	if hr["applied_seq"].(float64) != 1 || hr["primary_seq"].(float64) != 9 {
		t.Fatalf("healthz seqs = %v", hr)
	}
}

func TestReplicaMutationRefused(t *testing.T) {
	ts, _ := newReplicaServer(t, 0, 0, 0)
	code, body := post(t, ts.URL+"/ingest?owner=u", "application/xml", xmlschema.Figure3Document)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ingest on replica: %d %s, want 503", code, body)
	}
}

func TestWALStreamRoundTrip(t *testing.T) {
	ts, cat := newDurableServer(t, faultio.NewMemFS(), 1000)
	for i := 0; i < 4; i++ {
		if _, err := cat.CreateCollection(fmt.Sprintf("c%d", i), "ops", 0); err != nil {
			t.Fatal(err)
		}
	}
	want, last, gap, err := cat.WALSince(0)
	if err != nil || gap || len(want) != 4 {
		t.Fatalf("WALSince: %d recs gap=%v err=%v", len(want), gap, err)
	}

	resp, err := http.Get(ts.URL + "/wal/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-WAL-Last-Seq"); got != fmt.Sprint(last) {
		t.Fatalf("X-WAL-Last-Seq = %q, want %d", got, last)
	}
	recs, err := wal.DecodeFrames(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range recs {
		if recs[i].Seq != want[i].Seq || string(recs[i].Payload) != string(want[i].Payload) {
			t.Fatalf("record %d diverges from the log", i)
		}
	}

	// from=last: nothing newer, empty 200.
	resp, err = http.Get(fmt.Sprintf("%s/wal/stream?from=%d", ts.URL, last))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("stream from tip: %d, %d bytes; want empty 200", resp.StatusCode, len(body))
	}
}

func TestWALStreamLongPollWakesOnCommit(t *testing.T) {
	ts, cat := newDurableServer(t, faultio.NewMemFS(), 1000)
	if _, err := cat.CreateCollection("seed", "ops", 0); err != nil {
		t.Fatal(err)
	}
	from := cat.PublishedSeq()

	type result struct {
		recs []wal.Record
		took time.Duration
		err  error
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(fmt.Sprintf("%s/wal/stream?from=%d&wait_ms=10000", ts.URL, from))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		recs, err := wal.DecodeFrames(body)
		done <- result{recs: recs, took: time.Since(start), err: err}
	}()

	time.Sleep(50 * time.Millisecond) // let the poll park
	if _, err := cat.CreateCollection("wake", "ops", 0); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(res.recs) != 1 || res.recs[0].Seq != from+1 {
			t.Fatalf("long poll returned %d records, want the one commit", len(res.recs))
		}
		if res.took >= 10*time.Second {
			t.Fatalf("long poll slept the full window (%v); the commit did not wake it", res.took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never returned after the commit")
	}
}

func TestWALStreamGapAndBadFrom(t *testing.T) {
	ts, cat := newDurableServer(t, faultio.NewMemFS(), 2)
	for i := 0; i < 6; i++ {
		if _, err := cat.CreateCollection(fmt.Sprintf("c%d", i), "ops", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/wal/stream?from=0")
	if code != http.StatusConflict {
		t.Fatalf("stream across checkpoint truncation: %d %s, want 409", code, body)
	}
	code, _ = get(t, ts.URL+"/wal/stream?from=banana")
	if code != http.StatusBadRequest {
		t.Fatalf("stream with bad from: %d, want 400", code)
	}
	code, _ = get(t, ts.URL+"/wal/stream?from=7&wait_ms=soon")
	if code != http.StatusBadRequest {
		t.Fatalf("stream with bad wait_ms: %d, want 400", code)
	}
}

func TestWALSnapshotBootstrapsFollower(t *testing.T) {
	ts, cat := newDurableServer(t, faultio.NewMemFS(), 1000)
	if _, err := cat.RegisterAttr("grid", "ARPS", 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.IngestXML("scientist", xmlschema.Figure3Document); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/wal/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-WAL-Seq"); got != fmt.Sprint(cat.PublishedSeq()) {
		t.Fatalf("X-WAL-Seq = %q, want %d", got, cat.PublishedSeq())
	}
	follower, err := catalog.LoadFollower(xmlschema.MustLEAD(), catalog.Options{}, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if follower.AppliedSeq() != cat.PublishedSeq() {
		t.Fatalf("follower cursor %d, want %d", follower.AppliedSeq(), cat.PublishedSeq())
	}
	if got := len(follower.Objects()); got != 1 {
		t.Fatalf("follower has %d objects, want 1", got)
	}
}
