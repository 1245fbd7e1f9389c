package catalog

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// The crash matrix: a deterministic mutation workload runs against a
// durable catalog on a fault-injected filesystem that "kills the
// process" (every filesystem operation fails, the crashing write torn)
// at the Nth write/sync/rename/create/truncate — for every N a
// fault-free counting run observed. After each crash the in-memory page
// cache is dropped (unsynced bytes vanish), the catalog recovers from
// what is on disk, and the recovered state must byte-for-byte equal a
// lockstep in-memory oracle of either the acknowledged operations or
// the acknowledged operations plus the one in flight (a crash can land
// after the record became durable but before the caller saw success).

// crashClock pins every ingest timestamp so the oracle and the durable
// catalog produce identical rows.
var crashClock = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

const crashWAL = "cat.wal"

// crashOp is one step of the scripted workload. Each step is exactly
// one atomic catalog mutation (= at most one WAL record), so "the
// operation in flight" is well-defined at every fault point.
type crashOp struct {
	name string
	run  func(c *Catalog) error
}

func crashWorkload(t *testing.T) []crashOp {
	t.Helper()
	docA := xmlschema.Figure3Document
	docB := fig3Variant(t, "250")
	// docC's detailed attribute names an entity type no step registers,
	// so its ingest auto-registers the attribute and elements it uses:
	// one record of define ops plus the ingest, torn like any other.
	docC := strings.Replace(fig3Variant(t, "375"), "<enttypl>grid</enttypl>", "<enttypl>radar</enttypl>", 1)
	frag := themeFrag(t, "crash-key")
	expectOK := func(ok bool, err error, what string) error {
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s reported not found", what)
		}
		return nil
	}
	return []crashOp{
		{"register-grid", func(c *Catalog) error {
			_, err := c.RegisterAttr("grid", "ARPS", 0, "")
			return err
		}},
		{"register-dx", func(c *Catalog) error {
			_, err := c.RegisterElem("dx", "ARPS", mustAttrID(c, "grid"), core.DTFloat, "")
			return err
		}},
		{"register-dz", func(c *Catalog) error {
			_, err := c.RegisterElem("dz", "ARPS", mustAttrID(c, "grid"), core.DTFloat, "")
			return err
		}},
		{"register-stretching", func(c *Catalog) error {
			_, err := c.RegisterAttr("grid-stretching", "ARPS", mustAttrID(c, "grid"), "")
			return err
		}},
		{"register-dzmin", func(c *Catalog) error {
			_, err := c.RegisterElem("dzmin", "ARPS", mustAttrID(c, "grid-stretching"), core.DTFloat, "")
			return err
		}},
		{"register-refheight", func(c *Catalog) error {
			_, err := c.RegisterElem("reference-height", "ARPS", mustAttrID(c, "grid-stretching"), core.DTFloat, "")
			return err
		}},
		{"ingest-1", func(c *Catalog) error {
			_, err := c.IngestXML("scientist", docA)
			return err
		}},
		{"ingest-2", func(c *Catalog) error {
			_, err := c.IngestXML("scientist", docB)
			return err
		}},
		{"create-collection", func(c *Catalog) error {
			_, err := c.CreateCollection("storms", "scientist", 0)
			return err
		}},
		{"add-member-1", func(c *Catalog) error { return c.AddToCollection(1, 1) }},
		{"publish-1", func(c *Catalog) error { return c.SetPublished(1, true) }},
		{"ingest-autoregister", func(c *Catalog) error {
			_, err := c.IngestXML("scientist", docC)
			return err
		}},
		{"add-member-3", func(c *Catalog) error { return c.AddToCollection(1, 3) }},
		{"add-attribute-1", func(c *Catalog) error {
			return c.AddAttribute(1, "scientist", frag)
		}},
		{"remove-member-1", func(c *Catalog) error {
			ok, err := c.RemoveFromCollection(1, 1)
			return expectOK(ok, err, "remove member")
		}},
		{"delete-2", func(c *Catalog) error {
			ok, err := c.Delete(2)
			return expectOK(ok, err, "delete object 2")
		}},
		{"create-subcollection", func(c *Catalog) error {
			_, err := c.CreateCollection("cases", "scientist", 1)
			return err
		}},
		{"add-member-3-cases", func(c *Catalog) error { return c.AddToCollection(2, 3) }},
		{"unpublish-1", func(c *Catalog) error { return c.SetPublished(1, false) }},
	}
}

// mustAttrID resolves a registered dynamic attribute's ID by name; the
// workload uses it so later steps don't depend on captured variables.
func mustAttrID(c *Catalog, name string) int64 {
	for _, d := range c.Reg.Defs().Attrs() {
		if d.Name == name {
			return d.ID
		}
	}
	return 0
}

// stateFingerprint renders the complete externally observable state of
// a catalog: every data row (sorted by content, since physical row IDs
// are not stable across recovery), the registry dump, and the
// reconstructed XML of every object.
func stateFingerprint(c *Catalog) string {
	var b strings.Builder
	for _, name := range dataTables {
		rows := []string{}
		c.DB.MustTable(name).Scan(func(_ int64, r relstore.Row) bool {
			var rb strings.Builder
			for _, v := range r {
				fmt.Fprintf(&rb, "%d\x01%d\x01%s\x01%x\x02", v.K, v.I, v.S, math.Float64bits(v.F))
			}
			rows = append(rows, rb.String())
			return true
		})
		sort.Strings(rows)
		fmt.Fprintf(&b, "== %s (%d)\n%s\n", name, len(rows), strings.Join(rows, "\n"))
	}
	defs, err := c.DumpDefinitionsJSON()
	fmt.Fprintf(&b, "== defs\n%s err=%v\n", defs, err)
	for _, o := range c.Objects() {
		doc, err := c.FetchDocument(o.ID)
		if err != nil {
			fmt.Fprintf(&b, "== obj %d fetch err %v\n", o.ID, err)
			continue
		}
		fmt.Fprintf(&b, "== obj %d pub=%v\n%s\n", o.ID, o.Published, doc.String())
	}
	for _, ci := range c.Collections() {
		ids, err := c.CollectionObjects(ci.ID)
		fmt.Fprintf(&b, "== coll %d %q parent=%d objs=%v err=%v\n", ci.ID, ci.Name, ci.ParentID, ids, err)
	}
	return b.String()
}

// openDurableLEAD and newOracleLEAD auto-register, so the workload's
// ingest-autoregister step logs its definitions with its ingest.
func openDurableLEAD(t *testing.T, fs faultio.FS, every int) (*Catalog, error) {
	t.Helper()
	c, err := OpenDurable(xmlschema.MustLEAD(), Options{AutoRegister: true}, DurabilityOptions{
		FS: fs, WALPath: crashWAL, CheckpointEvery: every,
	})
	if err != nil {
		return nil, err
	}
	c.clock = func() time.Time { return crashClock }
	return c, nil
}

func newOracleLEAD(t *testing.T) *Catalog {
	t.Helper()
	c, err := Open(xmlschema.MustLEAD(), Options{AutoRegister: true})
	if err != nil {
		t.Fatal(err)
	}
	c.clock = func() time.Time { return crashClock }
	return c
}

// checkpointEvery for the matrix: small enough that checkpoints (and
// their crash windows) interleave with the workload several times.
const matrixCheckpointEvery = 4

// countCrashPoints runs the workload fault-free on a counting wrapper
// and returns the per-kind operation totals that size the matrix.
func countCrashPoints(t *testing.T, ops []crashOp, every int) map[faultio.OpKind]int {
	t.Helper()
	faulty := faultio.NewFaulty(faultio.NewMemFS(), faultio.Fault{})
	c, err := openDurableLEAD(t, faulty, every)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := op.run(c); err != nil {
			t.Fatalf("fault-free %s: %v", op.name, err)
		}
	}
	return faulty.Counts()
}

// multiOpSteps runs the workload fault-free and names the steps whose
// log record holds more than one op.
func multiOpSteps(t *testing.T, ops []crashOp) []string {
	t.Helper()
	c, err := openDurableLEAD(t, faultio.NewMemFS(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var multi []string
	var seq uint64
	for _, op := range ops {
		if err := op.run(c); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		recs, last, _, err := c.WALSince(seq)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if logged, err := decodeRecord(r.Payload); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			} else if len(logged) > 1 {
				multi = append(multi, op.name)
			}
		}
		seq = last
	}
	return multi
}

func TestCrashMatrix(t *testing.T) {
	runCrashMatrix(t, matrixCheckpointEvery)
}

// runCrashMatrix injects a crash at every write/sync/rename/create/
// truncate the workload performs with a checkpoint every `every` commits,
// one subtest per fault point.
func runCrashMatrix(t *testing.T, every int) {
	ops := crashWorkload(t)
	multi := multiOpSteps(t, ops)
	if len(multi) == 0 {
		t.Fatal("no workload step logs a multi-op record: no fault point tears one")
	}
	counts := countCrashPoints(t, ops, every)
	total := 0
	for _, kind := range []faultio.OpKind{faultio.OpWrite, faultio.OpSync, faultio.OpRename, faultio.OpCreate, faultio.OpTruncate} {
		n := counts[kind]
		if kind == faultio.OpWrite || kind == faultio.OpSync {
			if n < len(ops) {
				t.Fatalf("counting run saw only %d %s ops for %d workload steps", n, kind, len(ops))
			}
		}
		total += n
		for i := 1; i <= n; i++ {
			t.Run(fmt.Sprintf("%s-%d", kind, i), func(t *testing.T) {
				runCrashPoint(t, ops, faultio.Fault{
					Op: kind, N: i, Mode: faultio.CrashOp, Torn: (i * 7) % 23,
				}, every)
			})
		}
	}
	t.Logf("crash matrix (checkpoint every %d): %d fault points (%v); multi-op records: %v", every, total, counts, multi)
}

// runCrashPoint drives the workload into one crash point, recovers from
// the surviving bytes, and checks the recovered state against the
// oracle.
func runCrashPoint(t *testing.T, ops []crashOp, fault faultio.Fault, every int) {
	mem := faultio.NewMemFS()
	faulty := faultio.NewFaulty(mem, fault)
	oracle := newOracleLEAD(t)

	acked := 0
	var inFlight *crashOp
	c, err := openDurableLEAD(t, faulty, every)
	if err == nil {
		for i := range ops {
			op := &ops[i]
			if err := op.run(c); err != nil {
				// The workload is all-valid, so any failure must trace back
				// to the injected crash — not to a latent bug.
				if !errors.Is(err, faultio.ErrInjected) && !errors.Is(err, ErrDurability) {
					t.Fatalf("%s failed with a non-injected error: %v", op.name, err)
				}
				inFlight = op
				break
			}
			acked++
			if err := op.run(oracle); err != nil {
				t.Fatalf("oracle %s: %v", op.name, err)
			}
		}
	}

	// The process dies: unsynced page-cache contents are dropped.
	mem.Crash()
	rec, err := openDurableLEAD(t, mem, every)
	if err != nil {
		t.Fatalf("recovery after crash at %+v (acked %d): %v", fault, acked, err)
	}
	got := stateFingerprint(rec)
	pre := stateFingerprint(oracle)
	if got != pre {
		// The in-flight record may have become durable before the crash
		// point: also accept acked+1.
		if inFlight == nil {
			t.Fatalf("crash at %+v: recovered state diverges from the %d acknowledged ops:\n%s", fault, acked, diffFingerprint(pre, got))
		}
		if err := inFlight.run(oracle); err != nil {
			t.Fatalf("oracle %s: %v", inFlight.name, err)
		}
		post := stateFingerprint(oracle)
		if got != post {
			t.Fatalf("crash at %+v during %q: recovered state matches neither %d acked ops nor acked+1:\nvs acked+1:\n%s",
				fault, inFlight.name, acked, diffFingerprint(post, got))
		}
	}

	// The recovered catalog must accept new durable mutations.
	if _, err := rec.CreateCollection("post-crash", "ops", 0); err != nil {
		t.Fatalf("mutation after recovery: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
}

// diffFingerprint returns the first diverging lines of two fingerprints
// so matrix failures are readable.
func diffFingerprint(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestCrashMatrixSwapPoints covers the crash window the filesystem
// matrix cannot name precisely: the record's batch fsync has returned,
// but the version is neither published nor acknowledged.
func TestCrashMatrixSwapPoints(t *testing.T) {
	runPostFsyncCrashes(t, "swap", matrixCheckpointEvery)
}

// runPostFsyncCrashes kills each workload step at the log writer's
// AfterSync hook, the one point between a batch's fsync and its
// acknowledgement. The hook asserts that the live catalog has not
// published the version (the epoch has not moved), then freezes the
// disk as a crash would leave it. Recovery from the frozen disk must
// land on the oracle's acked+1 branch: the record reached the log
// before the process died.
func runPostFsyncCrashes(t *testing.T, prefix string, every int) {
	ops := crashWorkload(t)
	for k := range ops {
		t.Run(fmt.Sprintf("%s-%d-%s", prefix, k, ops[k].name), func(t *testing.T) {
			mem := faultio.NewMemFS()
			oracle := newOracleLEAD(t)
			c, err := openDurableLEAD(t, mem, every)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if err := ops[i].run(c); err != nil {
					t.Fatalf("%s: %v", ops[i].name, err)
				}
				if err := ops[i].run(oracle); err != nil {
					t.Fatalf("oracle %s: %v", ops[i].name, err)
				}
			}

			preEpoch := c.DB.Generation()
			var disk *faultio.MemFS
			c.dur.w.AfterSync = func() {
				if disk != nil {
					return
				}
				if got := c.DB.Generation(); got != preEpoch {
					t.Errorf("%s: epoch %d -> %d before the batch was acknowledged", ops[k].name, preEpoch, got)
				}
				// The process dies here: only synced bytes survive.
				mem.Crash()
				disk = faultio.NewMemFS()
				for _, name := range []string{crashWAL, crashWAL + ".snap"} {
					if b := mem.Bytes(name); b != nil {
						disk.SetBytes(name, b)
					}
				}
			}
			// The live process, had it lived, acks normally.
			if err := ops[k].run(c); err != nil {
				t.Fatalf("%s: %v", ops[k].name, err)
			}
			c.dur.w.AfterSync = nil
			if disk == nil {
				t.Fatalf("%s committed no batch", ops[k].name)
			}

			rec, err := openDurableLEAD(t, disk, every)
			if err != nil {
				t.Fatalf("recovery after post-fsync crash at %q: %v", ops[k].name, err)
			}
			if err := ops[k].run(oracle); err != nil {
				t.Fatalf("oracle %s: %v", ops[k].name, err)
			}
			if got, want := stateFingerprint(rec), stateFingerprint(oracle); got != want {
				t.Fatalf("post-fsync crash during %q: recovery must replay the durable record (acked+1):\n%s",
					ops[k].name, diffFingerprint(want, got))
			}
			if _, err := rec.CreateCollection("post-crash", "ops", 0); err != nil {
				t.Fatalf("mutation after recovery: %v", err)
			}
			if err := rec.Close(); err != nil {
				t.Fatalf("close after recovery: %v", err)
			}
		})
	}
}

// TestCrashRecoveryFullWorkload crashes only at the very end: every
// operation acknowledged, nothing checkpointed since the last automatic
// one, recovery must reproduce the full oracle state.
func TestCrashRecoveryFullWorkload(t *testing.T) {
	mem := faultio.NewMemFS()
	c, err := openDurableLEAD(t, mem, matrixCheckpointEvery)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracleLEAD(t)
	for _, op := range crashWorkload(t) {
		if err := op.run(c); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if err := op.run(oracle); err != nil {
			t.Fatalf("oracle %s: %v", op.name, err)
		}
	}
	mem.Crash()
	rec, err := openDurableLEAD(t, mem, matrixCheckpointEvery)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stateFingerprint(rec), stateFingerprint(oracle); got != want {
		t.Fatalf("recovered state diverges:\n%s", diffFingerprint(want, got))
	}
	st := rec.DurabilityStats()
	if !st.Enabled || st.CheckpointEvery != matrixCheckpointEvery {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCrashRecoveryIsIdempotent recovers, crashes again without writing,
// and recovers again: replay must not double-apply.
func TestCrashRecoveryIsIdempotent(t *testing.T) {
	mem := faultio.NewMemFS()
	c, err := openDurableLEAD(t, mem, 0) // no checkpoints: pure log replay
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range crashWorkload(t) {
		if err := op.run(c); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	mem.Crash()
	r1, err := openDurableLEAD(t, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	f1 := stateFingerprint(r1)
	mem.Crash()
	r2, err := openDurableLEAD(t, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f2 := stateFingerprint(r2); f1 != f2 {
		t.Fatalf("second recovery diverges:\n%s", diffFingerprint(f1, f2))
	}
}
