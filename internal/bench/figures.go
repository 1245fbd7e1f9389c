package bench

import (
	"fmt"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
	"github.com/gridmeta/hybridcat/internal/xpath"
)

// fig3Catalog opens a catalog with the Figure 3 dynamic definitions and
// the Figure 3 document ingested.
func fig3Catalog() (*catalog.Catalog, int64, error) {
	c, err := catalog.Open(xmlschema.MustLEAD(), catalog.Options{})
	if err != nil {
		return nil, 0, err
	}
	grid, err := c.RegisterAttr("grid", "ARPS", 0, "")
	if err != nil {
		return nil, 0, err
	}
	for _, e := range []string{"dx", "dz"} {
		if _, err := c.RegisterElem(e, "ARPS", grid.ID, core.DTFloat, ""); err != nil {
			return nil, 0, err
		}
	}
	gs, err := c.RegisterAttr("grid-stretching", "ARPS", grid.ID, "")
	if err != nil {
		return nil, 0, err
	}
	for _, e := range []string{"dzmin", "reference-height"} {
		if _, err := c.RegisterElem(e, "ARPS", gs.ID, core.DTFloat, ""); err != nil {
			return nil, 0, err
		}
	}
	id, err := c.IngestXML("scientist", xmlschema.Figure3Document)
	if err != nil {
		return nil, 0, err
	}
	return c, id, nil
}

// F1RoundTrip reproduces Figure 1: the full hybrid pipeline on the
// Figure 3 document — shred, store, query on attributes, rebuild the
// ordered XML response — reporting each stage's row counts and the
// round-trip fidelity.
func F1RoundTrip(o Options) (*Table, error) {
	_ = o
	t := &Table{
		ID:      "F1",
		Title:   "Figure 1 pipeline round trip on the Figure 3 document",
		Claim:   "Figure 1: shredded attributes answer the query; CLOBs plus the global ordering rebuild the document",
		Columns: []string{"stage", "result"},
	}
	c, id, err := fig3Catalog()
	if err != nil {
		return nil, err
	}
	for _, tbl := range []string{catalog.TClobs, catalog.TAttrData, catalog.TElemData, catalog.TSubAttrs} {
		t.AddRow("rows in "+tbl, c.DB.MustTable(tbl).Len())
	}
	q := &catalog.Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	resp, err := c.Search(q)
	if err != nil {
		return nil, err
	}
	t.AddRow("objects matching dx=1000", len(resp))
	want, _ := xmldoc.ParseString(xmlschema.Figure3Document)
	got, err := xmldoc.ParseString(resp[0].XML)
	if err != nil {
		return nil, err
	}
	t.AddRow("response well-formed", err == nil)
	t.AddRow("response equals original", xmldoc.Equal(want, got))
	t.AddRow("object id", id)
	return t, nil
}

// F2SchemaOrdering reproduces Figure 2: the LEAD partial schema
// partitioned into metadata attributes with the circled global node
// ordering.
func F2SchemaOrdering(o Options) (*Table, error) {
	_ = o
	t := &Table{
		ID:      "F2",
		Title:   "Figure 2: LEAD schema partitioning and global node ordering",
		Claim:   "Figure 2: one pre-order number per node at or above a metadata attribute; last-child order enables set-based close tags",
		Columns: []string{"ordering"},
	}
	s := xmlschema.MustLEAD()
	for _, row := range s.OrderingTable() {
		t.AddRow(row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d ordered nodes, %d metadata attributes", len(s.Ordered), len(s.Attributes)))
	return t, nil
}

// F3Shred reproduces Figure 3: the worked shredding of the example
// document into CLOBs, attribute/element rows, and the sub-attribute
// inverted list.
func F3Shred(o Options) (*Table, error) {
	_ = o
	t := &Table{
		ID:      "F3",
		Title:   "Figure 3: shredding the example document",
		Claim:   "§3: theme attributes shred by tag; the detailed element resolves to grid/ARPS by name+source",
		Columns: []string{"kind", "detail"},
	}
	c, _, err := fig3Catalog()
	if err != nil {
		return nil, err
	}
	// The figure's rows are the shredder's output: the catalog stores
	// only the columns its reads use (DESIGN.md "Relational schema").
	doc, err := xmldoc.ParseString(xmlschema.Figure3Document)
	if err != nil {
		return nil, err
	}
	res, err := core.NewShredder(c.Schema, c.Reg).Shred(doc, core.Options{Owner: "scientist"})
	if err != nil {
		return nil, err
	}
	defs := c.Reg.Defs()
	for _, cl := range res.Clobs {
		attr := "unshredded"
		if cl.AttrID != 0 {
			attr = defs.AttrByID(cl.AttrID).Name
		}
		t.AddRow("clob", fmt.Sprintf("node %s (order %d) seq %d -> attribute %q, %d bytes",
			c.Schema.NodeByOrder(cl.NodeOrder).Tag, cl.NodeOrder, cl.ClobSeq, attr, len(cl.XML)))
	}
	for _, e := range res.Elems {
		t.AddRow("element", fmt.Sprintf("%s.%s[%d] = %q", defs.AttrByID(e.AttrID).Name, defs.ElemByID(e.ElemID).Name, e.ElemSeq, e.Value))
	}
	for _, sa := range res.SubAttrs {
		t.AddRow("inverted-list", fmt.Sprintf("%s -> %s (depth %d)",
			defs.AttrByID(sa.ChildAttrID).Name, defs.AttrByID(sa.AncAttrID).Name, sa.Depth))
	}
	return t, nil
}

// F4WorkedQuery reproduces Figure 4 on the paper's §4 worked query, and
// checks the set-based pipeline agrees with the XQuery-style path
// evaluation of the same criteria.
func F4WorkedQuery(o Options) (*Table, error) {
	_ = o
	t := &Table{
		ID:      "F4",
		Title:   "Figure 4: the §4 worked query through the set-based pipeline",
		Claim:   "§4: unordered attribute criteria replace the XQuery FLWOR path expression",
		Columns: []string{"evaluation", "result"},
	}
	c, id, err := fig3Catalog()
	if err != nil {
		return nil, err
	}
	// Distractor that must not match.
	doc, _ := xmldoc.ParseString(xmlschema.Figure3Document)
	for _, a := range doc.FindAll("attr") {
		if a.ChildText("attrlabl") == "dx" {
			a.Child("attrv").Text = "2000"
		}
	}
	if _, err := c.Ingest("scientist", doc); err != nil {
		return nil, err
	}

	q := &catalog.Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", relstore.OpEq, relstore.Int(1000))
	st := &catalog.AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	st.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(100))
	g.AddSub(st)
	ids, err := c.Evaluate(q)
	if err != nil {
		return nil, err
	}
	t.AddRow("hybrid pipeline object IDs", fmt.Sprint(ids))

	// The same criteria as the paper's XQuery, evaluated path-wise over
	// the raw documents.
	dx := xpath.MustCompile("//detailed/attr[attrlabl='dx'][attrdefs='ARPS'][attrv=1000]")
	dz := xpath.MustCompile("//detailed/attr[attrlabl='grid-stretching'][attrdefs='ARPS']/attr[attrlabl='dzmin'][attrv=100]")
	var pathIDs []int64
	for oid := int64(1); oid <= 2; oid++ {
		d, err := c.FetchDocument(oid)
		if err != nil {
			return nil, err
		}
		if dx.Matches(d) && dz.Matches(d) {
			pathIDs = append(pathIDs, oid)
		}
	}
	t.AddRow("XQuery-style path evaluation", fmt.Sprint(pathIDs))
	t.AddRow("agreement", fmt.Sprint(ids) == fmt.Sprint(pathIDs))
	t.AddRow("expected match", fmt.Sprintf("[%d]", id))
	return t, nil
}
