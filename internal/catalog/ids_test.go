package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// idLedger remembers the highest object ID a catalog lineage has ever
// handed out, so every later ingest can be checked to lie above it.
type idLedger struct {
	t   *testing.T
	max int64
}

func (l *idLedger) ingest(c *Catalog) int64 {
	l.t.Helper()
	id, err := c.IngestXML("scientist", fig3Variant(l.t, fmt.Sprint(l.max+100)))
	if err != nil {
		l.t.Fatal(err)
	}
	if id <= l.max {
		l.t.Fatalf("ingest returned object ID %d again: IDs up to %d were already handed out", id, l.max)
	}
	l.max = id
	return id
}

func (l *idLedger) remove(c *Catalog, id int64) {
	l.t.Helper()
	if ok, err := c.Delete(id); err != nil || !ok {
		l.t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
	}
}

// TestObjectIDsNeverReissued: a deleted object's ID is never handed out
// again, whatever sequence of restarts, checkpoints, follower bootstraps,
// log imports and aborted batches lies between. Before the snapshot
// header carried the allocators' marks and replay advanced past every
// ID a log record names, "ingest 1-3, delete 3, ingest 4, restart,
// delete 4, restart" handed out 3 again.
func TestObjectIDsNeverReissued(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart func(t *testing.T, c *Catalog, mem *faultio.MemFS)
	}{
		{"wal-only", func(t *testing.T, c *Catalog, mem *faultio.MemFS) { mem.Crash() }},
		{"checkpointed", func(t *testing.T, c *Catalog, mem *faultio.MemFS) {
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mem.Crash()
		}},
		{"closed", func(t *testing.T, c *Catalog, mem *faultio.MemFS) {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := faultio.NewMemFS()
			l := &idLedger{t: t}
			reopen := func(c *Catalog) *Catalog {
				t.Helper()
				tc.restart(t, c, mem)
				c, err := openDurableLEAD(t, mem, 0)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			c, err := openDurableLEAD(t, mem, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				l.ingest(c)
			}
			l.remove(c, 3)
			l.remove(c, l.ingest(c))
			c = reopen(c)
			l.remove(c, l.ingest(c))
			c = reopen(c)
			c = reopen(c) // a restart with nothing logged since the last
			l.ingest(c)
		})
	}

	t.Run("follower", func(t *testing.T) {
		// A follower bootstrapped from the primary's snapshot and fed its
		// log carries the marks: a catalog loaded from the follower's own
		// snapshot reissues nothing the primary handed out.
		primary, err := openDurableLEAD(t, faultio.NewMemFS(), 0)
		if err != nil {
			t.Fatal(err)
		}
		l := &idLedger{t: t}
		for i := 0; i < 3; i++ {
			l.ingest(primary)
		}
		l.remove(primary, 3)
		var snap bytes.Buffer
		seq, err := primary.ReplicationSnapshot(&snap)
		if err != nil {
			t.Fatal(err)
		}
		follower, err := LoadFollower(xmlschema.MustLEAD(), Options{}, &snap)
		if err != nil {
			t.Fatal(err)
		}
		promote := func() *Catalog {
			t.Helper()
			var b bytes.Buffer
			if err := follower.Save(&b); err != nil {
				t.Fatal(err)
			}
			c, err := Load(xmlschema.MustLEAD(), Options{}, &b)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		probe := *l
		probe.ingest(promote())

		l.remove(primary, l.ingest(primary))
		recs, _, gap, err := primary.WALSince(seq)
		if err != nil || gap {
			t.Fatalf("WALSince(%d): gap=%v err=%v", seq, gap, err)
		}
		if err := follower.ApplyWAL(recs); err != nil {
			t.Fatal(err)
		}
		probe = *l
		probe.ingest(promote())
	})

	t.Run("import", func(t *testing.T) {
		// Rebalance's path: a snapshot bootstrap, then ImportWAL of the
		// source's tail, deletes included.
		src, err := openDurableLEAD(t, faultio.NewMemFS(), 0)
		if err != nil {
			t.Fatal(err)
		}
		l := &idLedger{t: t}
		l.remove(src, l.ingest(src))
		var snap bytes.Buffer
		seq, err := src.ReplicationSnapshot(&snap)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := Load(xmlschema.MustLEAD(), Options{}, &snap)
		if err != nil {
			t.Fatal(err)
		}
		l.ingest(src)
		l.remove(src, l.ingest(src))
		recs, _, gap, err := src.WALSince(seq)
		if err != nil || gap {
			t.Fatalf("WALSince(%d): gap=%v err=%v", seq, gap, err)
		}
		if err := dst.ImportWAL(recs); err != nil {
			t.Fatal(err)
		}
		l.ingest(dst)
	})

	t.Run("aborted-batch", func(t *testing.T) {
		// An ingest whose commit batch fails its fsync is rolled back;
		// the ID it took is skipped, in this process and after restarts.
		prefix := func(c *Catalog, l *idLedger) {
			l.ingest(c)
			l.remove(c, l.ingest(c))
		}
		counting := faultio.NewFaulty(faultio.NewMemFS(), faultio.Fault{})
		c, err := openDurableLEAD(t, counting, 0)
		if err != nil {
			t.Fatal(err)
		}
		prefix(c, &idLedger{t: t})
		n := counting.Counts()[faultio.OpSync]

		mem := faultio.NewMemFS()
		faulty := faultio.NewFaulty(mem, faultio.Fault{Op: faultio.OpSync, N: n + 1, Mode: faultio.FailOp})
		if c, err = openDurableLEAD(t, faulty, 0); err != nil {
			t.Fatal(err)
		}
		l := &idLedger{t: t}
		prefix(c, l)
		if _, err := c.IngestXML("scientist", fig3Variant(t, "500")); !errors.Is(err, ErrDurability) {
			t.Fatalf("ingest under a failing fsync = %v, want ErrDurability", err)
		}
		l.max++ // the aborted ingest's ID
		l.ingest(c)
		mem.Crash()
		if c, err = openDurableLEAD(t, mem, 0); err != nil {
			t.Fatal(err)
		}
		l.ingest(c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c, err = openDurableLEAD(t, mem, 0); err != nil {
			t.Fatal(err)
		}
		l.ingest(c)
	})
}
