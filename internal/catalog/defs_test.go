package catalog

import (
	"errors"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/wal"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// A definition exists exactly when the version that created it is
// published: the tests below fail a mutation that registered one in
// each way a mutation can fail, and require that nothing of it resolves.

// definitionAbsent fails t when the named top-level attribute resolves
// anywhere a reader can see definitions: the catalog's registry, the
// DefJSON dump /defs serves, and a query's pinned read.
func definitionAbsent(t *testing.T, c *Catalog, name, source string) {
	t.Helper()
	if d := c.Reg.Defs().LookupAttr(name, source, 0, ""); d != nil {
		t.Errorf("Reg resolves %s/%s as %+v", name, source, d)
	}
	if dump, err := c.DumpDefinitionsJSON(); err != nil || strings.Contains(string(dump), `"`+name+`"`) {
		t.Errorf("DumpDefinitionsJSON = %s, %v; want no %s", dump, err, name)
	}
	if d := c.pinView().defs.LookupAttr(name, source, 0, ""); d != nil {
		t.Errorf("a pinned view resolves %s/%s as %+v", name, source, d)
	}
	q := &Query{}
	q.Attr(name, source)
	if _, err := c.Evaluate(q); !errors.Is(err, ErrUnknownDefinition) {
		t.Errorf("query on %s/%s: err = %v, want ErrUnknownDefinition", name, source, err)
	}
}

// TestDurabilityFailedRegisterLeavesNoDefinition: a RegisterAttr whose
// batch fsync fails returns ErrDurability and leaves no definition, so
// the retry succeeds at the ID the failed attempt was given, and
// log-only recovery equals the live catalog.
func TestDurabilityFailedRegisterLeavesNoDefinition(t *testing.T) {
	fs := &syncFailFS{MemFS: faultio.NewMemFS()}
	c, err := OpenDurable(xmlschema.MustLEAD(), Options{}, DurabilityOptions{FS: fs, WALPath: crashWAL})
	if err != nil {
		t.Fatal(err)
	}
	fs.fail.Store(true)
	if _, err := c.RegisterAttr("ghost", "SRC", 0, ""); !errors.Is(err, ErrDurability) {
		t.Fatalf("RegisterAttr under a failing fsync = %v, want ErrDurability", err)
	}
	fs.fail.Store(false)
	definitionAbsent(t, c, "ghost", "SRC")
	attrs := c.Reg.Defs().Attrs()
	want := attrs[len(attrs)-1].ID + 1
	ghost, err := c.RegisterAttr("ghost", "SRC", 0, "")
	if err != nil {
		t.Fatalf("retry after the durability failure: %v", err)
	}
	if ghost.ID != want {
		t.Errorf("retry registered ID %d, want %d", ghost.ID, want)
	}
	if _, err := c.RegisterElem("p0", "SRC", ghost.ID, core.DTFloat, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestXML("alice", dynDoc("g1", "ghost", "SRC", "1.5")); err != nil {
		t.Fatal(err)
	}
	got := recoverFrom(t, nil, fs.Bytes(crashWAL))
	if d := got.Reg.Defs().LookupAttr("ghost", "SRC", 0, ""); d == nil || *d != *ghost {
		t.Errorf("recovered ghost = %+v, want %+v", d, ghost)
	}
	if g, w := stateFingerprint(got), stateFingerprint(c); g != w {
		t.Errorf("log-only recovery diverges from the live catalog:\n%s", diffFingerprint(w, g))
	}
}

// TestFailedIngestLeavesNoDefinition: an auto-registering ingest that
// is refused after its shred registered definitions, or whose batch
// fsync fails, leaves none of them.
func TestFailedIngestLeavesNoDefinition(t *testing.T) {
	fs := &syncFailFS{MemFS: faultio.NewMemFS()}
	c, err := OpenDurable(xmlschema.MustLEAD(), Options{AutoRegister: true}, DurabilityOptions{FS: fs, WALPath: crashWAL})
	if err != nil {
		t.Fatal(err)
	}
	// The dynamic attribute shreds (and registers) before the undeclared
	// element after it refuses the document.
	refused := strings.Replace(dynDoc("r1", "refused", "SRC", "1"),
		"</data>", "<undeclared>x</undeclared></data>", 1)
	if _, err := c.IngestXML("alice", refused); err == nil {
		t.Fatal("a strict catalog ingested a document with an undeclared element")
	}
	definitionAbsent(t, c, "refused", "SRC")

	fs.fail.Store(true)
	if _, err := c.IngestXML("alice", dynDoc("f1", "unsynced", "SRC", "1")); !errors.Is(err, ErrDurability) {
		t.Fatalf("ingest under a failing fsync = %v, want ErrDurability", err)
	}
	fs.fail.Store(false)
	definitionAbsent(t, c, "unsynced", "SRC")
	if c.ObjectCount() != 0 {
		t.Errorf("%d objects after two failed ingests, want 0", c.ObjectCount())
	}
}

// TestFailedApplyLeavesNoDefinition: a follower record that fails after
// its define op commits nothing, so the definition does not resolve and
// the corrected record applies at the same ID.
func TestFailedApplyLeavesNoDefinition(t *testing.T) {
	f, err := OpenFollower(xmlschema.MustLEAD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	attrs := f.Reg.Defs().Attrs()
	def := &core.AttrDef{ID: attrs[len(attrs)-1].ID + 1, Name: "halfway", Source: "SRC", SchemaOrder: 19, Queryable: true, Dynamic: true}
	record := func(xml string) wal.Record {
		return wal.Record{Seq: 1, Payload: encodeRecord([]op{
			{kind: opDefineAttr, attr: def},
			{kind: opIngest, id: 1, owner: "alice", xml: xml},
		})}
	}
	if err := f.ApplyWAL([]wal.Record{record("<LEADresource><unclosed>")}); err == nil {
		t.Fatal("a record with a malformed document applied")
	}
	definitionAbsent(t, f, "halfway", "SRC")
	if err := f.ApplyWAL([]wal.Record{record(dynDoc("h1", "halfway", "SRC"))}); err != nil {
		t.Fatalf("the corrected record: %v", err)
	}
	if d := f.Reg.Defs().LookupAttr("halfway", "SRC", 0, ""); d == nil || *d != *def {
		t.Errorf("applied definition = %+v, want %+v", d, def)
	}
}
