package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// syncFailFS fails every Sync while fail is set, so a test can fail one
// chosen commit's batch fsync.
type syncFailFS struct {
	*faultio.MemFS
	fail atomic.Bool
}

type syncFailFile struct {
	faultio.File
	fs *syncFailFS
}

func (f syncFailFile) Sync() error {
	if f.fs.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

func (s *syncFailFS) Create(name string) (faultio.File, error) {
	f, err := s.MemFS.Create(name)
	return syncFailFile{f, s}, err
}

func (s *syncFailFS) OpenAppend(name string) (faultio.File, error) {
	f, err := s.MemFS.OpenAppend(name)
	return syncFailFile{f, s}, err
}

// dynDoc returns a document carrying one dynamic attribute (name,
// source) whose elements p0, p1, ... hold vals.
func dynDoc(rid, name, source string, vals ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<LEADresource><resourceID>%s</resourceID><data><geospatial><eainfo><detailed>`+
		`<enttyp><enttypl>%s</enttypl><enttypds>%s</enttypds></enttyp>`, rid, name, source)
	for i, v := range vals {
		fmt.Fprintf(&b, `<attr><attrlabl>p%d</attrlabl><attrdefs>%s</attrdefs><attrv>%s</attrv></attr>`, i, source, v)
	}
	b.WriteString(`</detailed></eainfo></geospatial></data></LEADresource>`)
	return b.String()
}

// lenientDoc returns the Figure 3 document with an element the schema
// does not declare inside its first theme: a Lenient catalog ingests it,
// a strict one refuses it.
func lenientDoc(t *testing.T) *xmldoc.Node {
	t.Helper()
	doc, err := xmldoc.ParseString(fig3Variant(t, "125"))
	if err != nil {
		t.Fatal(err)
	}
	doc.FindAll("theme")[0].Append(xmldoc.NewLeaf("themenote", "undeclared"))
	return doc
}

// TestCrashReplayEqualsIngest: one seeded script over every op kind runs
// on a durable primary that auto-registers and ingests leniently, and
// five catalogs must then hold the same state: the primary; a log-only
// recovery; a snapshot-plus-tail recovery; a follower fed the log from
// record 1; and an ImportWAL of the tail into a snapshot bootstrap
// (plus that catalog's own log-only recovery). The replicas are opened
// with neither option, so the log alone must carry the Lenient bit and
// every definition. The script covers a user-private definition that
// shadows an admin one between two ingests by the same owner, AddAttribute
// sequence starts recomputed at replay, concurrent writers whose records
// share batches, and a failed batch fsync, which leaves no definition
// behind for a later record to carry.
func TestCrashReplayEqualsIngest(t *testing.T) {
	schema := xmlschema.MustLEAD()
	fs := &syncFailFS{MemFS: faultio.NewMemFS()}
	primary, err := OpenDurable(schema, Options{AutoRegister: true, Lenient: true},
		DurabilityOptions{FS: fs, WALPath: crashWAL})
	if err != nil {
		t.Fatal(err)
	}
	// Hold each batch open briefly so concurrent commits share it.
	primary.dur.gw.AfterSync = func() { time.Sleep(time.Millisecond) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ingest := func(owner, xml string) int64 {
		t.Helper()
		id, err := primary.IngestXML(owner, xml)
		must(err)
		return id
	}
	rng := rand.New(rand.NewSource(33))

	// Phase 1: every op kind, one writer. The import's bootstrap is
	// pinned after the first ingest, so the tail it imports as one local
	// record holds alice's two ingests with the shadowing definition
	// between them.
	ingest("bob", dynDoc("b0", "tuning", "WRF", "0.1"))
	var repl bytes.Buffer
	replSeq, err := primary.ReplicationSnapshot(&repl)
	must(err)
	a1 := ingest("alice", dynDoc("a1", "tuning", "WRF", "0.5"))
	if _, err := primary.RegisterAttr("tuning", "WRF", 0, "alice"); err != nil {
		t.Fatal(err)
	}
	a2 := ingest("alice", dynDoc("a2", "tuning", "WRF", "0.7", "3"))
	ingest("bob", dynDoc("b1", "tuning", "WRF", "0.9"))
	if strict, _ := Open(schema, Options{AutoRegister: true}); strict != nil {
		if _, err := strict.Ingest("carol", lenientDoc(t)); err == nil {
			t.Fatal("a strict catalog ingested the lenient document")
		}
	}
	lenient, err := primary.Ingest("carol", lenientDoc(t))
	must(err)
	treeIDs := make([]int64, 3)
	for i := range treeIDs {
		doc, err := xmldoc.ParseString(fig3Variant(t, fmt.Sprint(rng.Intn(5000))))
		must(err)
		treeIDs[i], err = primary.Ingest("bob", doc)
		must(err)
	}
	must(primary.AddAttribute(lenient, "carol", themeFrag(t, "phase-1")))
	must(primary.AddAttribute(a2, "alice", themeFrag(t, "phase-1")))
	must(primary.SetPublished(a1, true))
	must(primary.SetPublished(treeIDs[0], true))
	must(primary.SetPublished(treeIDs[0], false))
	root, err := primary.CreateCollection("storms", "alice", 0)
	must(err)
	child, err := primary.CreateCollection("cases", "alice", root)
	must(err)
	must(primary.AddToCollection(root, a1))
	must(primary.AddToCollection(child, a2))
	must(primary.AddToCollection(child, treeIDs[1]))
	if ok, err := primary.RemoveFromCollection(child, a2); err != nil || !ok {
		t.Fatalf("remove member: ok=%v err=%v", ok, err)
	}
	if ok, err := primary.Delete(treeIDs[2]); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}

	// The snapshot-plus-tail recovery's snapshot.
	snapFS := faultio.NewMemFS()
	must(primary.SaveFile(snapFS, crashWAL+".snap"))

	// Phase 2: concurrent writers, each auto-registering its own dynamic
	// attribute and appending to its own objects.
	const writers, steps = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		seed := rng.Int63()
		owner := fmt.Sprintf("w%d", w)
		variants := make([]string, steps)
		frags := make([]*xmldoc.Node, steps)
		for i := range variants {
			variants[i] = fig3Variant(t, fmt.Sprint(rng.Intn(5000)))
			frags[i] = themeFrag(t, fmt.Sprintf("%s-%d", owner, i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var mine []int64
			for i := 0; i < steps; i++ {
				var err error
				switch k := r.Intn(5); {
				case k == 0 && len(mine) > 0:
					err = primary.AddAttribute(mine[r.Intn(len(mine))], owner, frags[i])
				case k == 1 && len(mine) > 0:
					err = primary.SetPublished(mine[r.Intn(len(mine))], r.Intn(2) == 0)
				default:
					xml := variants[i]
					if k == 2 {
						xml = dynDoc(fmt.Sprintf("%s-%d", owner, i), "dyn"+owner, "SRC", fmt.Sprint(r.Intn(100)))
					}
					var id int64
					id, err = primary.IngestXML(owner, xml)
					mine = append(mine, id)
				}
				if err != nil {
					errs <- fmt.Errorf("%s op %d: %w", owner, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if g := primary.DurabilityStats().Group; g.LargestBatch < 2 {
		t.Errorf("no batch held two records (group stats %+v)", g)
	}

	// Phase 3: a commit whose batch fsync fails leaves no definition its
	// shred registered, so the next record carries only its own op, and
	// the re-issued ingest registers and journals the definitions itself.
	before := primary.PublishedSeq()
	failed := dynDoc("f1", "failgrid", "FAIL", "1", "2")
	fs.fail.Store(true)
	if _, err := primary.IngestXML("carol", failed); !errors.Is(err, ErrDurability) {
		t.Fatalf("ingest under a failing fsync = %v, want ErrDurability", err)
	}
	fs.fail.Store(false)
	if d := primary.Reg.Defs().LookupAttr("failgrid", "FAIL", 0, ""); d != nil {
		t.Fatalf("the failed ingest left definition %+v", d)
	}
	must(primary.SetPublished(a2, true))
	recs, _, _, err := primary.WALSince(before)
	must(err)
	if len(recs) != 1 {
		t.Fatalf("%d records after the failed commit, want 1", len(recs))
	}
	ops, err := decodeRecord(recs[0].Payload)
	must(err)
	if len(ops) != 1 || ops[0].kind != opSetPublished {
		t.Fatalf("record after the failed commit holds %v, want set_published alone", kinds(ops))
	}
	ingest("carol", failed)
	recs, _, _, err = primary.WALSince(recs[0].Seq)
	must(err)
	if len(recs) != 1 {
		t.Fatalf("%d records after the re-issued ingest, want 1", len(recs))
	}
	ops, err = decodeRecord(recs[0].Payload)
	must(err)
	failgrid := primary.Reg.Defs().LookupAttr("failgrid", "FAIL", 0, "")
	if failgrid == nil || len(ops) != 4 || ops[0].kind != opDefineAttr || ops[0].attr.ID != failgrid.ID ||
		ops[1].kind != opDefineElem || ops[2].kind != opDefineElem || ops[3].kind != opIngest {
		t.Fatalf("re-issued ingest's record holds %v, want define_attr, two define_elem, ingest", kinds(ops))
	}

	// The state, plus the ID allocators: every replica must hand out IDs
	// above the primary's.
	fingerprint := func(c *Catalog) string {
		return fmt.Sprintf("%s== id marks objects=%d collections=%d\n", stateFingerprint(c),
			c.DB.MustTable(TObjects).AutoID(), c.DB.MustTable(TCollections).AutoID())
	}
	want := fingerprint(primary)
	log := fs.Bytes(crashWAL)
	for name, got := range map[string]*Catalog{
		"log-only recovery":  recoverFrom(t, nil, log),
		"snapshot-plus-tail": recoverFrom(t, snapFS, log),
		"follower from seq 1": func() *Catalog {
			f, err := OpenFollower(schema, Options{})
			must(err)
			all, _, _, err := primary.WALSince(0)
			must(err)
			must(f.ApplyWAL(all))
			return f
		}(),
		"import into a bootstrap": func() *Catalog {
			dstFS := faultio.NewMemFS()
			dstFS.SetBytes(crashWAL+".snap", repl.Bytes())
			dst, err := OpenDurable(schema, Options{}, DurabilityOptions{FS: dstFS, WALPath: crashWAL})
			must(err)
			tail, _, gap, err := primary.WALSince(replSeq)
			if err != nil || gap {
				t.Fatalf("WALSince(%d): gap=%v err=%v", replSeq, gap, err)
			}
			must(dst.ImportWAL(tail))
			if got := fingerprint(dst); got != want {
				t.Fatalf("import into a bootstrap diverges:\n%s", diffFingerprint(want, got))
			}
			// The local record is what the import applied: the bootstrap's
			// own recovery lands on the same state.
			return recoverFrom(t, dstFS, dstFS.Bytes(crashWAL))
		}(),
	} {
		if g := fingerprint(got); g != want {
			t.Errorf("%s diverges from the primary:\n%s", name, diffFingerprint(want, g))
		}
	}
}

// recoverFrom opens a durable catalog, with default options, over log
// and, when snapFS is non-nil, the snapshot snapFS holds.
func recoverFrom(t *testing.T, snapFS *faultio.MemFS, log []byte) *Catalog {
	t.Helper()
	fs := faultio.NewMemFS()
	if snapFS != nil {
		fs.SetBytes(crashWAL+".snap", snapFS.Bytes(crashWAL+".snap"))
	}
	fs.SetBytes(crashWAL, log)
	c, err := OpenDurable(xmlschema.MustLEAD(), Options{}, DurabilityOptions{FS: fs, WALPath: crashWAL})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func kinds(ops []op) []opKind {
	out := make([]opKind, len(ops))
	for i, o := range ops {
		out[i] = o.kind
	}
	return out
}

// TestFollowerRefusesBeforeRegistering: a mutation refused on a follower
// leaves its registry untouched — no registration, and no shred that
// auto-registers. A phantom definition would hold the ID the primary's
// next definition carries and wedge the follower's apply.
func TestFollowerRefusesBeforeRegistering(t *testing.T) {
	f, err := OpenFollower(xmlschema.MustLEAD(), Options{AutoRegister: true})
	if err != nil {
		t.Fatal(err)
	}
	attrs, elems := len(f.Reg.Defs().Attrs()), len(f.Reg.Defs().Elems())
	doc, err := xmldoc.ParseString(dynDoc("r", "phantom", "SRC", "1"))
	if err != nil {
		t.Fatal(err)
	}
	refusals := map[string]error{}
	_, refusals["RegisterAttr"] = f.RegisterAttr("phantom", "SRC", 0, "")
	_, refusals["RegisterElem"] = f.RegisterElem("phantom", "SRC", 1, 0, "")
	_, refusals["Ingest"] = f.Ingest("scientist", doc)
	_, refusals["IngestXML"] = f.IngestXML("scientist", dynDoc("r", "phantom", "SRC", "1"))
	refusals["AddAttribute"] = f.AddAttribute(1, "scientist", doc.FindAll("detailed")[0])
	for name, err := range refusals {
		if !errors.Is(err, ErrReadOnlyReplica) {
			t.Errorf("%s on a follower = %v, want ErrReadOnlyReplica", name, err)
		}
	}
	if a, e := len(f.Reg.Defs().Attrs()), len(f.Reg.Defs().Elems()); a != attrs || e != elems {
		t.Errorf("refused mutations changed the registry: %d→%d attributes, %d→%d elements", attrs, a, elems, e)
	}
	if f.Reg.Defs().LookupAttr("phantom", "SRC", 0, "") != nil {
		t.Error("a refused mutation's definition resolves")
	}
}

// TestShredRedoneAfterRacingRegistration: alice's ingest races alice's
// registration of a private definition of the same name. Replay resolves
// the document against every definition logged before it, the private
// one included, so the live ingest must resolve against the same
// registry state; otherwise its rows name the admin definition and a
// recovered catalog's name the private one. Ingest shreds inside its
// mutation, under the write lock the registration also takes, so this
// holds by construction; the test pins it.
func TestShredRedoneAfterRacingRegistration(t *testing.T) {
	mem := faultio.NewMemFS()
	c, err := OpenDurable(xmlschema.MustLEAD(), Options{AutoRegister: true}, DurabilityOptions{FS: mem, WALPath: crashWAL})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]string, 20)
	for i := range vals {
		vals[i] = fmt.Sprint(i)
	}
	for round := 0; round < 60; round++ {
		name := fmt.Sprintf("race%d", round)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := c.IngestXML("alice", dynDoc(name, name, "SRC", vals...)); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round%10) * 20 * time.Microsecond)
			if _, err := c.RegisterAttr(name, "SRC", 0, "alice"); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
	}
	if got, want := stateFingerprint(recoverFrom(t, nil, mem.Bytes(crashWAL))), stateFingerprint(c); got != want {
		t.Fatalf("recovery diverges from the catalog:\n%s", diffFingerprint(want, got))
	}
}
