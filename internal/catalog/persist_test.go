package catalog

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	c, p, expA, _, objs := collFixture(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(xmlschema.MustLEAD(), Options{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same objects.
	if loaded.ObjectCount() != c.ObjectCount() {
		t.Fatalf("objects = %d, want %d", loaded.ObjectCount(), c.ObjectCount())
	}
	// Queries answer identically.
	q := &Query{}
	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	a, err := c.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("query after load: %v vs %v", a, b)
	}
	// Documents reconstruct identically.
	d1, err := c.FetchDocument(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loaded.FetchDocument(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !xmldoc.Equal(d1, d2) {
		t.Fatalf("documents differ after load: %s", xmldoc.Diff(d1, d2))
	}
	// Collections survive.
	got, err := loaded.EvaluateInContext(expA, q)
	if err != nil || len(got) != 1 {
		t.Fatalf("context query after load: %v, %v", got, err)
	}
	_ = p
}

func TestLoadedCatalogAcceptsNewWork(t *testing.T) {
	c, _, _, _, _ := collFixture(t)
	before := c.ObjectCount()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(xmlschema.MustLEAD(), Options{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// New ingests continue past the restored IDs.
	id, err := loaded.IngestXML("alice", fig3Variant(t, "4242"))
	if err != nil {
		t.Fatal(err)
	}
	if id != int64(before+1) {
		t.Errorf("new id = %d, want %d", id, before+1)
	}
	// New dynamic definitions register past restored definition IDs.
	def, err := loaded.RegisterAttr("fresh", "WRF", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Reg.Defs().AttrByID(def.ID) == nil {
		t.Error("fresh definition missing")
	}
	// New collection IDs don't collide.
	cid, err := loaded.CreateCollection("post-load", "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.AddToCollection(cid, id); err != nil {
		t.Fatal(err)
	}
	got, _ := loaded.CollectionObjects(cid)
	if len(got) != 1 || got[0] != id {
		t.Fatalf("post-load collection = %v", got)
	}
}

func TestLoadRejectsMismatchedSchemaAndGarbage(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A different schema must be rejected.
	other, err := xmlschema.ParseDSL("other", "root\n  a *")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(other, Options{}, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("mismatched schema should fail")
	}
	// Garbage input.
	if _, err := Load(xmlschema.MustLEAD(), Options{}, strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage should fail")
	}
	// Truncated snapshot.
	if _, err := Load(xmlschema.MustLEAD(), Options{}, bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated snapshot should fail")
	}
}

func TestUserPrivateDefsSurviveSnapshot(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	alice, err := c.RegisterAttr("tuning", "WRF", 0, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterElem("nudge", "WRF", alice.ID, 2 /* DTFloat */, "alice"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(xmlschema.MustLEAD(), Options{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Reg.Defs().LookupAttr("tuning", "WRF", 0, "alice")
	if got == nil || got.ID != alice.ID || got.Owner != "alice" {
		t.Fatalf("private def after load = %+v", got)
	}
	if loaded.Reg.Defs().LookupAttr("tuning", "WRF", 0, "bob") != nil {
		t.Error("private def leaked to other users after load")
	}
}

// TestTableLayoutPinned pins the data tables' columns, in order, and
// every table's declared indexes, so a column or an index without a
// reader cannot come back unnoticed (DESIGN.md "Relational schema"); it
// requires elem_data_by_nval to hold one entry per row with a non-NULL
// nval and none for the others, and Load to refuse, with an error, a
// snapshot row whose width is neither its table's nor the table's
// parent layout's.
func TestTableLayoutPinned(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	want := map[string]string{
		TAttrData: "object_id attr_id seq_id",
		TElemData: "object_id seq_id elem_id sval nval",
		TSubAttrs: "object_id child_attr_id child_seq anc_attr_id anc_seq",
		TClobs:    "object_id node_order clob_seq clob",
	}
	for name, cols := range want {
		var got []string
		for _, col := range c.DB.MustTable(name).Schema.Columns {
			got = append(got, col.Name)
		}
		if g := strings.Join(got, " "); g != cols {
			t.Errorf("%s columns %q, want %q", name, g, cols)
		}
	}
	wantIndexes := map[string]string{
		TObjects:     "objects_pk(object_id) unique; objects_by_owner(owner object_id); objects_by_published(published object_id)",
		TAttrData:    "attr_data_by_attr(attr_id object_id seq_id); attr_data_by_object(object_id)",
		TElemData:    "elem_data_by_sval(elem_id sval object_id seq_id); elem_data_by_nval(elem_id nval object_id seq_id); elem_data_by_object(object_id)",
		TSubAttrs:    "sub_attrs_by_child(child_attr_id anc_attr_id object_id child_seq anc_seq); sub_attrs_by_object(object_id)",
		TClobs:       "clobs_by_object(object_id node_order clob_seq)",
		TCollections: "collections_pk(coll_id) unique; collections_by_parent(parent_coll_id)",
		TMembers:     "members_pk(coll_id object_id) unique; members_by_object(object_id)",
	}
	if names := c.DB.TableNames(); len(names) != len(wantIndexes) {
		t.Errorf("tables %v, want the %d pinned here", names, len(wantIndexes))
	}
	for name, ixs := range wantIndexes {
		var got []string
		for _, ix := range c.DB.MustTable(name).Schema.Indexes {
			d := fmt.Sprintf("%s(%s)", ix.Name, strings.Join(ix.Cols, " "))
			if ix.Unique {
				d += " unique"
			}
			got = append(got, d)
		}
		if g := strings.Join(got, "; "); g != ixs {
			t.Errorf("%s indexes %q, want %q", name, g, ixs)
		}
	}
	ingestFig3(t, c)
	elem := c.DB.MustTable(TElemData)
	var nums, nulls int
	elem.Scan(func(_ int64, r relstore.Row) bool {
		if r[4].IsNull() {
			nulls++
		} else {
			nums++
		}
		return true
	})
	entries, err := elem.LookupRange("elem_data_by_nval", relstore.RangeBound{}, relstore.RangeBound{})
	if err != nil {
		t.Fatal(err)
	}
	if nums == 0 || nulls == 0 || len(entries) != nums {
		t.Errorf("elem_data_by_nval holds %d entries over %d numeric and %d NULL nval rows, want one per numeric row", len(entries), nums, nulls)
	}
	for name, parent := range parentLayouts {
		// A snapshot whose table name holds one row a column wider than
		// the parent layout.
		width := parent.width + 1
		db := relstore.NewDatabase()
		tx := db.Begin()
		tx.SetValue(c.Reg.Defs())
		tx.Commit()
		for _, tn := range dataTables {
			cols := c.DB.MustTable(tn).Schema.Columns
			if tn == name {
				cols = make([]relstore.Column, width)
				for i := range cols {
					cols[i] = col(fmt.Sprintf("c%d", i), relstore.KInt, true)
				}
			}
			if _, err := db.CreateTable(tn, cols); err != nil {
				t.Fatal(err)
			}
		}
		row := make(relstore.Row, width)
		for i := range row {
			row[i] = relstore.Int(1)
		}
		if _, err := db.MustTable(name).Insert(row); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeSnapshot(c.Schema, pin{db: db.Snapshot()}, &buf); err != nil {
			t.Fatal(err)
		}
		msg := fmt.Sprintf("%s: row has %d values, want %d", name, width, len(strings.Fields(want[name])))
		if _, err := Load(c.Schema, Options{}, &buf); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("Load of a %d-value %s row: err = %v, want %q", width, name, err, msg)
		}
	}
}
