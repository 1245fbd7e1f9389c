package catalog

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Crash windows of the batched commit path beyond the sequential matrix
// (crash_test.go). A batch of records from concurrent writers becomes
// durable with ONE fsync, every writer in it is acknowledged only after
// that fsync returns, and the commit that owes a checkpoint takes it
// after its batch published:
//
//   - a checkpoint after every commit: every mutation kind crosses the
//     snapshot and log-reset crash points its own commit triggers,
//   - mid-batch: the crash lands inside a batch's single write or
//     fsync, so the batch is torn — recovery must keep every
//     acknowledged operation and admit nothing that was never issued,
//   - post-fsync-pre-ack with the crashed record directly above a
//     checkpoint's watermark.

// TestGroupCrashMatrix runs the filesystem crash matrix with a
// checkpoint after every commit: each step's commit publishes, then
// writes the snapshot and resets the log, so every mutation kind meets
// every snapshot and log-reset crash point.
func TestGroupCrashMatrix(t *testing.T) {
	runCrashMatrix(t, 1)
}

// TestGroupCrashMatrixConcurrentBatches crashes inside real multi-writer
// batches: eight writers race single-record mutations while the
// filesystem dies at the Nth write or sync. The device has a real flush
// cost, so commits queue behind the batch that is syncing and batches
// form with no collection window. Concurrency makes "the operation in
// flight" a set, so the oracle is containment, checked per writer: every
// ACKED operation must survive recovery (the fsync its batch reported
// covered its record), and nothing that was never issued may appear.
func TestGroupCrashMatrixConcurrentBatches(t *testing.T) {
	largest := 0
	for _, kind := range []faultio.OpKind{faultio.OpSync, faultio.OpWrite} {
		// Crash points past the run's actual op count simply never fire
		// and degrade to a fault-free run — still a valid oracle check.
		for i := 1; i <= 12; i++ {
			t.Run(fmt.Sprintf("%s-%d", kind, i), func(t *testing.T) {
				largest = max(largest, runGroupBatchCrash(t, faultio.Fault{
					Op: kind, N: i, Mode: faultio.CrashOp, Torn: (i * 5) % 17,
				}))
			})
		}
	}
	if largest < 2 {
		t.Errorf("largest batch held %d records: the writers never shared an fsync", largest)
	}
}

// runGroupBatchCrash runs one concurrent crash point and returns the
// largest batch the crashed catalog flushed.
func runGroupBatchCrash(t *testing.T, fault faultio.Fault) int {
	const writers, perWriter = 8, 6
	mem := faultio.NewMemFS()
	faulty := faultio.NewFaulty(faultio.NewSlowFS(mem, 500*time.Microsecond), fault)

	var mu sync.Mutex
	acked := map[string]bool{}
	issued := map[string]bool{}

	largest := 0
	c, err := OpenDurable(xmlschema.MustLEAD(), Options{}, DurabilityOptions{
		FS: faulty, WALPath: crashWAL, CheckpointEvery: 1000,
	})
	if err == nil {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < perWriter; k++ {
					name := fmt.Sprintf("c-%d-%d", w, k)
					mu.Lock()
					issued[name] = true
					mu.Unlock()
					_, err := c.CreateCollection(name, "ops", 0)
					if err == nil {
						mu.Lock()
						acked[name] = true
						mu.Unlock()
						continue
					}
					if !errors.Is(err, faultio.ErrInjected) && !errors.Is(err, ErrDurability) {
						t.Errorf("%s failed with a non-injected error: %v", name, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		largest = c.DurabilityStats().Group.LargestBatch
	}
	if t.Failed() {
		return largest
	}

	mem.Crash()
	rec, err := openDurableLEAD(t, mem, 1000)
	if err != nil {
		t.Fatalf("recovery after batch crash at %+v (%d acked): %v", fault, len(acked), err)
	}
	got := map[string]bool{}
	for _, ci := range rec.Collections() {
		got[ci.Name] = true
	}
	for name := range acked {
		if !got[name] {
			t.Errorf("acked operation %q lost in recovery (crash at %+v)", name, fault)
		}
	}
	for name := range got {
		if !issued[name] {
			t.Errorf("recovery surfaced %q, which was never issued", name)
		}
	}
	// The recovered catalog must accept new durable work.
	if _, err := rec.CreateCollection("post-crash", "ops", 0); err != nil {
		t.Fatalf("mutation after recovery: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	return largest
}

// TestGroupCrashPostFsyncPreAck runs the post-fsync-pre-ack crash of
// every workload step with a checkpoint after every commit, so the
// durable, unacknowledged record is the only one above the snapshot's
// watermark: recovery is the snapshot plus exactly that record.
func TestGroupCrashPostFsyncPreAck(t *testing.T) {
	runPostFsyncCrashes(t, "batch", 1)
}
