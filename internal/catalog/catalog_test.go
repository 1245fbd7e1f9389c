package catalog

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// newLEADCatalog opens a catalog over the LEAD schema with the Figure 3
// dynamic definitions registered.
func newLEADCatalog(t *testing.T, opts Options) *Catalog {
	t.Helper()
	c, err := Open(xmlschema.MustLEAD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := c.RegisterAttr("grid", "ARPS", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"dx", "dy", "dz"} {
		if _, err := c.RegisterElem(e, "ARPS", grid.ID, core.DTFloat, ""); err != nil {
			t.Fatal(err)
		}
	}
	gs, err := c.RegisterAttr("grid-stretching", "ARPS", grid.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"dzmin", "reference-height"} {
		if _, err := c.RegisterElem(e, "ARPS", gs.ID, core.DTFloat, ""); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func ingestFig3(t *testing.T, c *Catalog) int64 {
	t.Helper()
	id, err := c.IngestXML("scientist", xmlschema.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// fig3Variant returns the Figure 3 document with dx replaced.
func fig3Variant(t *testing.T, dx string) string {
	t.Helper()
	doc, err := xmldoc.ParseString(xmlschema.Figure3Document)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range doc.FindAll("attr") {
		if a.ChildText("attrlabl") == "dx" {
			a.Child("attrv").Text = dx
		}
	}
	return doc.String()
}

// TestOptionsSurfacePinned pins the catalog's configuration surface:
// exactly these Options fields, in this order. An option cannot be
// added (or come back) without this list changing, as
// TestCacheSurfacePinned and scripts/flagdoc.sh do for the cache
// layers and mdserver's flags.
func TestOptionsSurfacePinned(t *testing.T) {
	pinFields(t, Options{},
		"AutoRegister bool",
		"Lenient bool",
		"CacheSize int",
		"Metrics *obs.Registry",
	)
}

// TestDurabilityOptionsSurfacePinned pins DurabilityOptions the same
// way: the durable commit path has one policy, so no collection window,
// batch size or per-commit fsync switch can come back as a field.
func TestDurabilityOptionsSurfacePinned(t *testing.T) {
	pinFields(t, DurabilityOptions{},
		"FS faultio.FS",
		"WALPath string",
		"CheckpointEvery int",
		"NoSync bool",
	)
}

// pinFields fails unless v's struct fields are exactly want, in order.
func pinFields(t *testing.T, v any, want ...string) {
	t.Helper()
	typ := reflect.TypeOf(v)
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		got = append(got, f.Name+" "+f.Type.String())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s fields:\n got %q\nwant %q", typ, got, want)
	}
}

func TestIngestStoresAllRowKinds(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)
	if id != 1 || c.ObjectCount() != 1 {
		t.Fatalf("id = %d, count = %d", id, c.ObjectCount())
	}
	for table, want := range map[string]int{
		TClobs:    4, // resourceID, theme x2, detailed
		TAttrData: 5, // resourceID, theme x2, grid, grid-stretching
		TSubAttrs: 1, // grid-stretching -> grid
	} {
		if got := c.DB.MustTable(table).Len(); got != want {
			t.Errorf("%s rows = %d, want %d", table, got, want)
		}
	}
	if got := c.DB.MustTable(TElemData).Len(); got != 11 {
		// resourceID, 2x(themekt+2 themekey), dx, dz, dzmin, ref-height
		t.Errorf("elem rows = %d, want 11", got)
	}
	objs := c.Objects()
	if len(objs) != 1 || objs[0].Owner != "scientist" || !strings.HasPrefix(objs[0].Name, "lead:resource") {
		t.Errorf("objects = %+v", objs)
	}
}

// TestFigure1RoundTrip drives the full hybrid pipeline of Figure 1:
// shred -> store -> query on attributes -> build the ordered XML
// response, and checks the response reproduces the original document.
func TestFigure1RoundTrip(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)

	q := &Query{}
	q.Attr("theme", "").AddElem("themekey", "", relstore.OpEq, relstore.Str("convective_precipitation_amount"))
	resp, err := c.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || resp[0].ObjectID != id {
		t.Fatalf("resp = %+v", resp)
	}
	got, err := xmldoc.ParseString(resp[0].XML)
	if err != nil {
		t.Fatalf("response is not well-formed: %v\n%s", err, resp[0].XML)
	}
	want, _ := xmldoc.ParseString(xmlschema.Figure3Document)
	if !xmldoc.Equal(want, got) {
		t.Fatalf("round trip differs: %s\ngot: %s", xmldoc.Diff(want, got), resp[0].XML)
	}
}

// TestFigure4WorkedQuery runs the paper's §4 example: objects with a
// grid/ARPS attribute having dx = 1000 that also contain a
// grid-stretching sub-attribute with dzmin = 100.
func TestFigure4WorkedQuery(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	match := ingestFig3(t, c)
	// Distractors: wrong dx; missing grid-stretching criteria value.
	if _, err := c.IngestXML("scientist", fig3Variant(t, "2000")); err != nil {
		t.Fatal(err)
	}

	q := &Query{}
	grid := q.Attr("grid", "ARPS")
	grid.AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	st := &AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	st.AddElem("dzmin", "", relstore.OpEq, relstore.Int(100))
	// The paper's Java API omits the source on dzmin's addElement; our
	// resolution requires the registered identity.
	st.Elems[0].Source = "ARPS"
	grid.AddSub(st)

	ids, err := c.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != match {
		t.Fatalf("ids = %v, want [%d]", ids, match)
	}
}

func TestQueryAttributeOnlyAndMultiCriteria(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)

	// Existence of any grid/ARPS attribute.
	q := &Query{}
	q.Attr("grid", "ARPS")
	ids, err := c.Evaluate(q)
	if err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("existence query = %v, %v", ids, err)
	}

	// Two top-level criteria: both must hold.
	q = &Query{}
	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	q.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("CF NetCDF"))
	if ids, _ = c.Evaluate(q); len(ids) != 1 {
		t.Fatalf("two-criteria query = %v", ids)
	}

	// Second criterion failing removes the object.
	q = &Query{}
	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	q.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("GCMD"))
	if ids, _ = c.Evaluate(q); len(ids) != 0 {
		t.Fatalf("failing second criterion = %v", ids)
	}
}

func TestQuerySameInstanceSemantics(t *testing.T) {
	// Both element predicates must hold on the SAME attribute instance:
	// doc has theme A (kt=CF, key=alpha) and theme B (kt=GCMD, key=beta);
	// a query for kt=CF AND key=beta must not match.
	c := newLEADCatalog(t, Options{})
	xml := `<LEADresource><resourceID>r</resourceID><data><idinfo><keywords>
	  <theme><themekt>CF</themekt><themekey>alpha</themekey></theme>
	  <theme><themekt>GCMD</themekt><themekey>beta</themekey></theme>
	</keywords></idinfo></data></LEADresource>`
	if _, err := c.IngestXML("u", xml); err != nil {
		t.Fatal(err)
	}
	q := &Query{}
	q.Attr("theme", "").
		AddElem("themekt", "", relstore.OpEq, relstore.Str("CF")).
		AddElem("themekey", "", relstore.OpEq, relstore.Str("beta"))
	ids, err := c.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("cross-instance match leaked: %v", ids)
	}
	// Same instance matches.
	q = &Query{}
	q.Attr("theme", "").
		AddElem("themekt", "", relstore.OpEq, relstore.Str("CF")).
		AddElem("themekey", "", relstore.OpEq, relstore.Str("alpha"))
	if ids, _ = c.Evaluate(q); len(ids) != 1 {
		t.Fatalf("same-instance query = %v", ids)
	}
}

func TestQueryRangeOperators(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	for _, dx := range []string{"500", "1000", "1500", "2000"} {
		if _, err := c.IngestXML("u", fig3Variant(t, dx)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		op   relstore.CmpOp
		val  int64
		want int
	}{
		{relstore.OpEq, 1000, 1},
		{relstore.OpNe, 1000, 3},
		{relstore.OpLt, 1500, 2},
		{relstore.OpLe, 1500, 3},
		{relstore.OpGt, 1500, 1},
		{relstore.OpGe, 1500, 2},
	}
	for _, tc := range cases {
		q := &Query{}
		q.Attr("grid", "ARPS").AddElem("dx", "ARPS", tc.op, relstore.Int(tc.val))
		ids, err := c.Evaluate(q)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		if len(ids) != tc.want {
			t.Errorf("dx %v %d matched %d objects, want %d", tc.op, tc.val, len(ids), tc.want)
		}
	}
	// String comparison on a structural element.
	q := &Query{}
	q.Attr("theme", "").AddElem("themekt", "", relstore.OpGe, relstore.Str("CF"))
	if ids, _ := c.Evaluate(q); len(ids) != 4 {
		t.Errorf("string >= matched %d", len(ids))
	}
}

func TestQueryUnknownDefinitions(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	ingestFig3(t, c)
	q := &Query{}
	q.Attr("nonexistent", "ARPS")
	_, err := c.Evaluate(q)
	if !errors.Is(err, ErrUnknownDefinition) {
		t.Errorf("err = %v, want ErrUnknownDefinition", err)
	}
	q = &Query{}
	q.Attr("grid", "ARPS").AddElem("nope", "ARPS", relstore.OpEq, relstore.Int(1))
	if _, err := c.Evaluate(q); !errors.Is(err, ErrUnknownDefinition) {
		t.Errorf("elem err = %v", err)
	}
	// Empty query.
	if _, err := c.Evaluate(&Query{}); err == nil {
		t.Error("empty query should fail")
	}
}

func TestResponseMultipleObjectsOrderedAndTagged(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id1 := ingestFig3(t, c)
	id2, err := c.IngestXML("u", fig3Variant(t, "2000"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.BuildResponse([]int64{id2, id1, id2}) // duplicate + reversed
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 2 || resp[0].ObjectID != id2 || resp[1].ObjectID != id1 {
		t.Fatalf("resp order = %+v", resp)
	}
	for _, r := range resp {
		if _, err := xmldoc.ParseString(r.XML); err != nil {
			t.Errorf("object %d response not well-formed: %v", r.ObjectID, err)
		}
	}
	// Unknown IDs are skipped.
	resp, _ = c.BuildResponse([]int64{9999})
	if len(resp) != 0 {
		t.Errorf("unknown id resp = %+v", resp)
	}
	if resp, _ := c.BuildResponse(nil); resp != nil {
		t.Error("empty request should return nil")
	}
}

func TestBuildResponseRejectsUnknownNodeOrder(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)
	bad := int64(len(c.Schema.Ordered) + 1)
	// A direct row write: no mutation API stores a CLOB at an unknown
	// order, so none would journal one.
	if err := c.withTx(func() error {
		_, err := c.wtab(TClobs).Insert(relstore.Row{
			relstore.Int(id), relstore.Int(bad), relstore.Int(1), relstore.Str("<x/>"),
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BuildResponse([]int64{id}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node order %d", bad)) {
		t.Fatalf("BuildResponse over a CLOB at order %d: err = %v", bad, err)
	}
	if _, err := c.FetchDocument(id); err == nil {
		t.Fatal("FetchDocument over an unknown node order succeeded")
	}
}

func TestFetchDocumentAndDelete(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)
	doc, err := c.FetchDocument(id)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := xmldoc.ParseString(xmlschema.Figure3Document)
	if !xmldoc.Equal(want, doc) {
		t.Fatalf("fetch differs: %s", xmldoc.Diff(want, doc))
	}
	if ok, err := c.Delete(id); err != nil || !ok {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	if ok, err := c.Delete(id); err != nil || ok {
		t.Errorf("double delete = %v, %v", ok, err)
	}
	if _, err := c.FetchDocument(id); err == nil {
		t.Error("fetch after delete should fail")
	}
	// All rows gone.
	for _, table := range []string{TObjects, TAttrData, TElemData, TSubAttrs, TClobs} {
		if n := c.DB.MustTable(table).Len(); n != 0 {
			t.Errorf("%s retains %d rows after delete", table, n)
		}
	}
}

func TestIngestValidationFailureStoresNothing(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	bad := fig3Variant(t, "not-numeric") // dx declared DTFloat
	if _, err := c.IngestXML("u", bad); err == nil {
		t.Fatal("type-invalid document should fail")
	}
	if c.ObjectCount() != 0 {
		t.Error("failed ingest left an object behind")
	}
	for _, table := range []string{TAttrData, TElemData, TClobs} {
		if n := c.DB.MustTable(table).Len(); n != 0 {
			t.Errorf("%s retains %d rows after failed ingest", table, n)
		}
	}
}

func TestUnmatchedDynamicAttrStaysClobOnlyButFetchable(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	doc, _ := xmldoc.ParseString(xmlschema.Figure3Document)
	doc.FindAll("enttypl")[0].Text = "mystery-model"
	id, err := c.Ingest("u", doc)
	if err != nil {
		t.Fatal(err)
	}
	// Not queryable.
	q := &Query{}
	q.Attr("grid", "ARPS")
	if ids, _ := c.Evaluate(q); len(ids) != 0 {
		t.Error("unmatched dynamic attr should not be queryable")
	}
	// But fully reconstructable from the CLOB.
	got, err := c.FetchDocument(id)
	if err != nil {
		t.Fatal(err)
	}
	if !xmldoc.Equal(doc, got) {
		t.Errorf("clob-only fetch differs: %s", xmldoc.Diff(doc, got))
	}
}

func TestDeepSubAttributeQueryAndAblation(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	grid := c.Reg.Defs().LookupAttr("grid", "ARPS", 0, "")
	gs := c.Reg.Defs().LookupAttr("grid-stretching", "ARPS", grid.ID, "")
	lvl3, err := c.RegisterAttr("level3", "ARPS", gs.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterElem("deep", "ARPS", lvl3.ID, core.DTInt, ""); err != nil {
		t.Fatal(err)
	}
	xml := `<LEADresource><resourceID>r</resourceID><data><geospatial><eainfo>
	  <detailed>
	    <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>
	    <attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>
	      <attr><attrlabl>level3</attrlabl><attrdefs>ARPS</attrdefs>
	        <attr><attrlabl>deep</attrlabl><attrdefs>ARPS</attrdefs><attrv>7</attrv></attr>
	      </attr>
	    </attr>
	  </detailed>
	</eainfo></geospatial></data></LEADresource>`
	id, err := c.IngestXML("u", xml)
	if err != nil {
		t.Fatal(err)
	}
	// Three-level nested criteria.
	q := &Query{}
	g := q.Attr("grid", "ARPS")
	s := &AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	l := &AttrCriteria{Name: "level3", Source: "ARPS"}
	l.AddElem("deep", "ARPS", relstore.OpEq, relstore.Int(7))
	s.AddSub(l)
	g.AddSub(s)
	ids, err := c.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("deep query = %v", ids)
	}
	// Skipping the middle level does not resolve: level3's parent in the
	// registry is grid-stretching, so the criteria tree must follow
	// registry identity, and level3 directly under grid is unknown.
	q = &Query{}
	g = q.Attr("grid", "ARPS")
	g.AddSub(&AttrCriteria{Name: "level3", Source: "ARPS"})
	if _, err := c.Evaluate(q); !errors.Is(err, ErrUnknownDefinition) {
		t.Errorf("level3 under grid should be unknown, got %v", err)
	}
	// Wrong deep value does not match.
	q = &Query{}
	g = q.Attr("grid", "ARPS")
	s = &AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	l = &AttrCriteria{Name: "level3", Source: "ARPS"}
	l.AddElem("deep", "ARPS", relstore.OpEq, relstore.Int(8))
	s.AddSub(l)
	g.AddSub(s)
	if ids, _ := c.Evaluate(q); len(ids) != 0 {
		t.Errorf("wrong value matched %v", ids)
	}
}

func TestMultiInstanceSubAttributeContainment(t *testing.T) {
	// Two grid instances in one object; only one contains a stretching
	// sub-attribute with dzmin=100. A query requiring dx=2000 AND
	// dzmin=100 on the SAME grid instance must not match, while dx=1000
	// AND dzmin=100 must.
	c := newLEADCatalog(t, Options{})
	xml := `<LEADresource><resourceID>r</resourceID><data><geospatial><eainfo>
	  <detailed>
	    <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>
	    <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1000</attrv></attr>
	    <attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>
	      <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>100</attrv></attr>
	    </attr>
	  </detailed>
	  <detailed>
	    <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>
	    <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>2000</attrv></attr>
	  </detailed>
	</eainfo></geospatial></data></LEADresource>`
	if _, err := c.IngestXML("u", xml); err != nil {
		t.Fatal(err)
	}
	mk := func(dx int64) *Query {
		q := &Query{}
		g := q.Attr("grid", "ARPS")
		g.AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(dx))
		s := &AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
		s.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(100))
		g.AddSub(s)
		return q
	}
	if ids, err := c.Evaluate(mk(1000)); err != nil || len(ids) != 1 {
		t.Fatalf("dx=1000: %v, %v", ids, err)
	}
	if ids, err := c.Evaluate(mk(2000)); err != nil || len(ids) != 0 {
		t.Fatalf("dx=2000 leaked cross-instance containment: %v, %v", ids, err)
	}
}

func TestUserPrivateDefinitions(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	// Alice registers a private attribute; the same identity is not
	// visible to Bob's queries.
	alice, err := c.RegisterAttr("tuning", "WRF", 0, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterElem("nudge", "WRF", alice.ID, core.DTFloat, "alice"); err != nil {
		t.Fatal(err)
	}
	xml := `<LEADresource><resourceID>r</resourceID><data><geospatial><eainfo>
	  <detailed>
	    <enttyp><enttypl>tuning</enttypl><enttypds>WRF</enttypds></enttyp>
	    <attr><attrlabl>nudge</attrlabl><attrdefs>WRF</attrdefs><attrv>0.5</attrv></attr>
	  </detailed>
	</eainfo></geospatial></data></LEADresource>`
	if _, err := c.IngestXML("alice", xml); err != nil {
		t.Fatal(err)
	}
	qa := &Query{Owner: "alice"}
	qa.Attr("tuning", "WRF").AddElem("nudge", "WRF", relstore.OpEq, relstore.Float(0.5))
	if ids, err := c.Evaluate(qa); err != nil || len(ids) != 1 {
		t.Fatalf("alice query = %v, %v", ids, err)
	}
	qb := &Query{Owner: "bob"}
	qb.Attr("tuning", "WRF")
	if _, err := c.Evaluate(qb); !errors.Is(err, ErrUnknownDefinition) {
		t.Errorf("bob should not resolve alice's definition: %v", err)
	}
}

func TestConcurrentIngestAndQuery(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				_, err = c.IngestXML("u", fig3Variant(t, fmt.Sprint(500+w*100+i)))
			}
			done <- err
		}(w)
	}
	for r := 0; r < 4; r++ {
		go func() {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				q := &Query{}
				q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpGe, relstore.Int(0))
				_, err = c.Evaluate(q)
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if c.ObjectCount() != 80 {
		t.Errorf("objects = %d", c.ObjectCount())
	}
}
