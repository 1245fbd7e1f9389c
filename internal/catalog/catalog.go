// Package catalog ties the hybrid core to the relational engine: it owns
// the catalog's relational schema (attribute/element data, sub-attribute
// inverted lists, per-attribute CLOBs, and the schema-level global
// ordering tables), the Figure-4 set-based query pipeline, and the §5
// response builder.
package catalog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// Table names of the hybrid catalog's relational schema.
const (
	TObjects  = "objects"
	TAttrData = "attr_data"
	TElemData = "elem_data"
	TSubAttrs = "sub_attrs"
	TClobs    = "clobs"
)

// Options configures a catalog instance.
type Options struct {
	// AutoRegister creates definitions for unknown dynamic attributes at
	// ingest instead of leaving them CLOB-only.
	AutoRegister bool
	// Lenient ignores unknown structural elements instead of rejecting
	// the document.
	Lenient bool
	// CacheSize bounds each read-cache layer (evaluate, postings,
	// response) in entries. 0 uses DefaultCacheSize; negative disables
	// caching entirely: every evaluation and response build recomputes
	// from the base tables.
	CacheSize int
	// Metrics, when non-nil, instruments the catalog and everything under
	// it (relstore tables, cache layers, the WAL, the query pipeline)
	// onto the given registry, and enables the slow-query trace ring of
	// DefaultTraceDepth entries. Nil — the default — disables all
	// instrumentation at nil-check cost.
	Metrics *obs.Registry
}

// Catalog is a hybrid XML-relational metadata catalog over one community
// schema.
type Catalog struct {
	Schema *xmlschema.Schema
	// Reg resolves against the published version's definitions and
	// cannot register; registration goes through RegisterAttr,
	// RegisterElem or an auto-registering ingest.
	Reg *core.Registry
	DB  *relstore.Database

	shredder *core.Shredder
	opts     Options

	// mu serializes mutations' version builds (ingest, delete, publish,
	// collection membership, dynamic registration) and guards c.dur,
	// c.tx and the in-flight record. A durable writer releases it before
	// waiting for its batch fsync (see durable.go). The read path does
	// NOT take it: every read operation pins an immutable snapshot via
	// pinView and runs lock-free against it (see view.go), overlapping
	// freely with writers — who build the next version copy-on-write and
	// publish it with one atomic pointer swap. Only Save and
	// DurabilityStats still take the read side, to exclude builds while
	// pinning or reading the durability counters.
	mu    sync.RWMutex
	clock func() time.Time

	// caches are the three read caches (see cache.go): a reader stamps
	// what it stores with its pinned snapshot's epoch, so every stored
	// value was computed from exactly the table state of the epoch it is
	// stamped with; a response entry is restamped by a reader at another
	// epoch only after that reader has checked it against its own
	// snapshot (see builtDoc).
	caches catCaches

	// The in-flight log record (see record.go): while mutate records,
	// each apply function appends the op it applied to rec, after the
	// definitions it added; mutate commits rec as one log record, or
	// aborts the builder when it stays empty.
	recording bool
	rec       []op
	dur       *durability

	// tx is the relstore transaction of the mutation currently holding
	// the write lock (nil outside mutations); interior helpers address
	// tables through c.wtab so their writes land in this builder instead
	// of auto-committing per row. draft is the transaction's private
	// copy of the definitions (see draftDefs), nil until it registers.
	// Both are guarded by the write lock.
	tx    *relstore.Tx
	draft *core.Defs

	// follower marks a read-only replica catalog: every local mutation
	// is refused with ErrReadOnlyReplica, and state advances only
	// through ApplyWAL replaying the primary's log records (see
	// follower.go). applied is its replication cursor, guarded by mu.
	follower bool
	applied  uint64

	// obsv holds the instrument handles and the slow-trace ring (see
	// obs.go); zero-valued (all no-ops) without Options.Metrics.
	obsv catObs

	// text holds the epoch-stamped BM25 text index (rank.go), built on
	// the first ranked query and advanced by snapshot diff on the first
	// one after a mutation; textMu serializes that work so concurrent
	// ranked queries do it once.
	text   atomic.Pointer[stampedText]
	textMu sync.Mutex
}

// Open builds a catalog for a finalized schema: its first version
// carries the schema's structural definitions, which are never logged,
// and the relational schema.
func Open(schema *xmlschema.Schema, opts Options) (*Catalog, error) {
	defs, err := core.NewDefs(schema)
	if err != nil {
		return nil, err
	}
	c := &Catalog{
		Schema: schema,
		DB:     relstore.NewDatabase(),
		opts:   opts,
		clock:  time.Now,
	}
	c.Reg = core.NewRegistry(c.publishedDefs, nil)
	c.shredder = core.NewShredder(schema, core.NewRegistry(c.txDefs, c.draftDefs))
	c.initObs()
	c.DB.SetMetrics(c.obsv.reg)
	c.initCaches()
	c.withTx(func() error {
		c.tx.SetValue(defs)
		return nil
	})
	if err := c.createTables(); err != nil {
		return nil, err
	}
	if err := c.initCollections(); err != nil {
		return nil, err
	}
	return c, nil
}

func col(name string, k relstore.Kind, notNull bool) relstore.Column {
	return relstore.Column{Name: name, Type: k, NotNull: notNull}
}

// nonUnique declares a non-unique index over cols.
func nonUnique(name string, cols ...string) relstore.Index {
	return relstore.Index{Name: name, Cols: cols}
}

func (c *Catalog) createTables() error {
	type tdef struct {
		name    string
		cols    []relstore.Column
		indexes []relstore.Index
	}
	// The data tables store only the columns some read uses: the
	// indexes' keys, the sibling counters AddAttribute reads, and a
	// CLOB's order, sequence and text for §5. Figure 3's full rows (an element's owning definition and local
	// order, an inverted-list entry's depth, a CLOB's attribute) are the
	// shredder's output, core.ShredResult, and are not stored.
	//
	// The Figure-4 indexes (attr_data_by_attr, elem_data_by_sval/nval,
	// sub_attrs_by_child, objects_by_owner/published) end in the instance
	// columns, so the executor reads (object, seq) straight off the keys
	// (relstore.LookupRangeTails) and never fetches a row. An element
	// whose text is not numeric has a NULL nval, hence no
	// elem_data_by_nval entry.
	tables := []tdef{
		{TObjects, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("name", relstore.KString, false),
			col("owner", relstore.KString, false),
			col("created", relstore.KString, false),
			col("published", relstore.KBool, false),
		}, []relstore.Index{
			{Name: "objects_pk", Unique: true, Cols: []string{"object_id"}},
			nonUnique("objects_by_owner", "owner", "object_id"),
			nonUnique("objects_by_published", "published", "object_id"),
		}},
		{TAttrData, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("attr_id", relstore.KInt, true),
			col("seq_id", relstore.KInt, true),
		}, []relstore.Index{
			nonUnique("attr_data_by_attr", "attr_id", "object_id", "seq_id"),
			nonUnique("attr_data_by_object", "object_id"),
		}},
		{TElemData, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("seq_id", relstore.KInt, true),
			col("elem_id", relstore.KInt, true),
			col("sval", relstore.KString, false),
			col("nval", relstore.KFloat, false),
		}, []relstore.Index{
			nonUnique("elem_data_by_sval", "elem_id", "sval", "object_id", "seq_id"),
			nonUnique("elem_data_by_nval", "elem_id", "nval", "object_id", "seq_id"),
			nonUnique("elem_data_by_object", "object_id"),
		}},
		{TSubAttrs, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("child_attr_id", relstore.KInt, true),
			col("child_seq", relstore.KInt, true),
			col("anc_attr_id", relstore.KInt, true),
			col("anc_seq", relstore.KInt, true),
		}, []relstore.Index{
			nonUnique("sub_attrs_by_child", "child_attr_id", "anc_attr_id", "object_id", "child_seq", "anc_seq"),
			nonUnique("sub_attrs_by_object", "object_id"),
		}},
		{TClobs, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("node_order", relstore.KInt, true),
			col("clob_seq", relstore.KInt, true),
			col("clob", relstore.KString, true),
		}, []relstore.Index{
			nonUnique("clobs_by_object", "object_id", "node_order", "clob_seq"),
		}},
	}
	for _, td := range tables {
		if _, err := c.DB.CreateTable(td.name, td.cols, td.indexes...); err != nil {
			return err
		}
	}
	return nil
}

// Definitions are the value of the catalog's relstore version (see
// relstore.Tx.SetValue): a mutation resolves against its transaction's
// definitions and registers into a private copy of them, so a
// definition commits, aborts and publishes with the rows of the
// mutation that created it, and its log record carries it.

// publishedDefs returns the published version's definitions: what
// Catalog.Reg resolves against.
func (c *Catalog) publishedDefs() *core.Defs { return c.DB.Value().(*core.Defs) }

// txDefs returns the definitions of the transaction bound to c.tx: its
// private copy once it registered, its base version's otherwise.
func (c *Catalog) txDefs() *core.Defs { return c.tx.Value().(*core.Defs) }

// draftDefs returns the bound transaction's private copy of its
// definitions, cloned from its base version on first use.
func (c *Catalog) draftDefs() *core.Defs {
	if c.draft == nil {
		c.draft = c.txDefs().Clone()
		c.tx.SetValue(c.draft)
	}
	return c.draft
}

// RegisterAttr registers a dynamic attribute definition; its mutation's
// log record carries it. parentID 0 registers a top-level dynamic
// attribute located at the schema's first dynamic container.
func (c *Catalog) RegisterAttr(name, source string, parentID int64, owner string) (*core.AttrDef, error) {
	order := 0
	for _, a := range c.Schema.Attributes {
		if a.IsDynamic {
			order = a.Order
			break
		}
	}
	if order == 0 {
		return nil, fmt.Errorf("catalog: schema %s has no dynamic attribute container", c.Schema.Name)
	}
	var def *core.AttrDef
	err := c.mutate(func() (err error) {
		if def, err = c.draftDefs().RegisterAttr(name, source, parentID, order, owner); err == nil {
			c.journal(op{kind: opDefineAttr, attr: def})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return def, nil
}

// RegisterElem registers a dynamic element definition under an attribute.
func (c *Catalog) RegisterElem(name, source string, attrID int64, dt core.DataType, owner string) (*core.ElemDef, error) {
	var def *core.ElemDef
	err := c.mutate(func() (err error) {
		if def, err = c.draftDefs().RegisterElem(name, source, attrID, dt, owner); err == nil {
			c.journal(op{kind: opDefineElem, elem: def})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return def, nil
}

// Ingest shreds a document and stores it for the given owner, returning
// the new object ID. On validation failure nothing is stored. The log
// carries the document's serialization, so a tree built in code must
// survive xmldoc's parse of its own String (the §5 rebuild assumes the
// same).
func (c *Catalog) Ingest(owner string, doc *xmldoc.Node) (int64, error) {
	return c.ingest(owner, "", doc)
}

// IngestXML parses and ingests a document held in a string; the log
// carries the string as received.
func (c *Catalog) IngestXML(owner, xml string) (int64, error) {
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		return 0, err
	}
	return c.ingest(owner, xml, doc)
}

// ingest decides the object ID and created time under the write lock
// and applies the ingest there, like every other mutation.
func (c *Catalog) ingest(owner, xml string, doc *xmldoc.Node) (int64, error) {
	o := op{kind: opIngest, owner: owner, lenient: c.opts.Lenient, xml: xml, doc: doc}
	err := c.mutate(func() error {
		o.id = c.wtab(TObjects).NextAutoID()
		o.created = c.clock().UTC().Format(time.RFC3339)
		return c.applyIngest(o, true)
	})
	if err != nil {
		return 0, err
	}
	return o.id, nil
}

// shredOpts returns the shredder options of an ingest or add_attribute
// op: live calls auto-register per the catalog's options, replay never
// does.
func (c *Catalog) shredOpts(o op, live bool) core.Options {
	return core.Options{Owner: o.owner, AutoRegister: live && c.opts.AutoRegister, Lenient: o.lenient}
}

// applyIngest shreds o.doc and stores it as object o.id: its objects
// row, then its shredded rows. Live ingest and replay both shred here,
// under the write lock, so they resolve the document against the same
// definitions: the transaction's.
func (c *Catalog) applyIngest(o op, live bool) error {
	res, err := c.shredder.Shred(o.doc, c.shredOpts(o, live))
	if err != nil {
		return err
	}
	objT := c.wtab(TObjects)
	// Replay's IDs are the log's: the allocator must pass them.
	objT.EnsureAutoID(o.id)
	name := o.doc.Tag
	if rid := o.doc.Child("resourceID"); rid != nil {
		name = rid.Text
	}
	if _, err := objT.Insert(relstore.Row{
		relstore.Int(o.id), relstore.Str(name), relstore.Str(o.owner),
		relstore.Str(o.created), relstore.Bool(false),
	}); err != nil {
		return err
	}
	if err := c.insertShred(o.id, res); err != nil {
		return fmt.Errorf("catalog: ingest of object %d failed: %w", o.id, err)
	}
	c.journalShred(res, o)
	return nil
}

// journalShred journals the definitions a shred auto-registered, then
// the op that shredded: every definition precedes the op that
// references it.
func (c *Catalog) journalShred(res *core.ShredResult, o op) {
	for _, d := range res.NewAttrs {
		c.journal(op{kind: opDefineAttr, attr: d})
	}
	for _, d := range res.NewElems {
		c.journal(op{kind: opDefineElem, elem: d})
	}
	c.journal(o)
}

func (c *Catalog) insertShred(id int64, res *core.ShredResult) error {
	oid := relstore.Int(id)
	attrT := c.wtab(TAttrData)
	for _, a := range res.Attrs {
		if _, err := attrT.Insert(relstore.Row{oid, relstore.Int(a.AttrID), relstore.Int(int64(a.Seq))}); err != nil {
			return err
		}
	}
	elemT := c.wtab(TElemData)
	for _, e := range res.Elems {
		nval := relstore.Null()
		if e.HasNum {
			nval = relstore.Float(e.Num)
		}
		_, err := elemT.Insert(relstore.Row{
			oid, relstore.Int(int64(e.AttrSeq)), relstore.Int(e.ElemID), relstore.Str(e.Value), nval,
		})
		if err != nil {
			return err
		}
	}
	subT := c.wtab(TSubAttrs)
	for _, sa := range res.SubAttrs {
		_, err := subT.Insert(relstore.Row{
			oid, relstore.Int(sa.ChildAttrID), relstore.Int(int64(sa.ChildSeq)),
			relstore.Int(sa.AncAttrID), relstore.Int(int64(sa.AncSeq)),
		})
		if err != nil {
			return err
		}
	}
	clobT := c.wtab(TClobs)
	for _, cl := range res.Clobs {
		_, err := clobT.Insert(relstore.Row{
			oid, relstore.Int(int64(cl.NodeOrder)), relstore.Int(int64(cl.ClobSeq)), relstore.Str(cl.XML),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// AddAttribute appends one metadata attribute instance to an existing
// object (§5): the fragment is shredded with sequence counters continuing
// from the object's current state. The schema-level global ordering makes
// this O(rows inserted) — no per-document renumbering (the E7
// experiment's point).
func (c *Catalog) AddAttribute(objectID int64, owner string, frag *xmldoc.Node) error {
	return c.mutate(func() error {
		return c.applyAddAttribute(op{kind: opAddAttribute, id: objectID, owner: owner, lenient: c.opts.Lenient, doc: frag}, true)
	})
}

// applyAddAttribute shreds the fragment o.doc into object o.id. The
// sequence counters are read from the object's rows, not logged: replay
// has rebuilt those rows identically, so it computes the same starts.
func (c *Catalog) applyAddAttribute(o op, live bool) error {
	decl := c.Schema.AttributeByTag(o.doc.Tag)
	if decl == nil {
		return fmt.Errorf("catalog: <%s> is not a metadata attribute of schema %s", o.doc.Tag, c.Schema.Name)
	}
	// All reads run inside the mutation's transaction (c.wtab): another
	// writer's staged-but-unpublished version may be the base of this
	// transaction, and reading the published tables instead would
	// compute stale sibling counters.
	ids, err := c.wtab(TObjects).LookupEqual("objects_pk", relstore.Int(o.id))
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("catalog: no object %d", o.id)
	}
	// Current same-sibling counters for the object.
	clobSeq := map[int]int{}
	clobT := c.wtab(TClobs)
	rowIDs, err := clobT.LookupRange("clobs_by_object",
		relstore.RangeBound{Vals: []relstore.Value{relstore.Int(o.id)}, Inclusive: true, Set: true},
		relstore.RangeBound{Vals: []relstore.Value{relstore.Int(o.id)}, Inclusive: true, Set: true})
	if err != nil {
		return err
	}
	for _, rid := range rowIDs {
		if r := clobT.Get(rid); r != nil {
			if int(r[2].I) > clobSeq[int(r[1].I)] {
				clobSeq[int(r[1].I)] = int(r[2].I)
			}
		}
	}
	attrSeq := map[int64]int{}
	attrT := c.wtab(TAttrData)
	aids, err := attrT.LookupEqual("attr_data_by_object", relstore.Int(o.id))
	if err != nil {
		return err
	}
	for _, rid := range aids {
		if r := attrT.Get(rid); r != nil {
			if int(r[2].I) > attrSeq[r[1].I] {
				attrSeq[r[1].I] = int(r[2].I)
			}
		}
	}
	res, err := c.shredder.ShredAttribute(o.doc, decl, c.shredOpts(o, live), clobSeq, attrSeq)
	if err != nil {
		return err
	}
	if err := c.insertShred(o.id, res); err != nil {
		return err
	}
	c.journalShred(res, o)
	return nil
}

// Delete removes an object and all its rows, reporting whether it
// existed. A durability failure leaves the object in place.
func (c *Catalog) Delete(id int64) (bool, error) {
	return found(c.mutate(func() error { return c.applyDelete(op{kind: opDelete, id: id}) }))
}

// applyDelete removes object o.id and all its rows.
func (c *Catalog) applyDelete(o op) error {
	// The existence check reads the transaction's view: a staged
	// (durable-pending, not yet published) ingest of this object must
	// count as existing or the delete would silently no-op.
	ids, _ := c.wtab(TObjects).LookupEqual("objects_pk", relstore.Int(o.id))
	if len(ids) == 0 {
		return errNotFound
	}
	c.removeObjectLocked(o.id)
	c.journal(o)
	return nil
}

// errNotFound is an internal sentinel for mutations whose target does
// not exist: it aborts the transaction without surfacing an error when
// the API reports absence through a return value instead.
var errNotFound = errors.New("catalog: not found")

// found maps such a mutation's outcome to the API's (existed, error).
func found(err error) (bool, error) {
	if errors.Is(err, errNotFound) {
		return false, nil
	}
	return err == nil, err
}

func (c *Catalog) removeObjectLocked(id int64) {
	for table, index := range map[string]string{
		TObjects:  "objects_pk",
		TAttrData: "attr_data_by_object",
		TElemData: "elem_data_by_object",
		TSubAttrs: "sub_attrs_by_object",
		TMembers:  "members_by_object",
	} {
		t := c.wtab(table)
		ids, _ := t.LookupEqual(index, relstore.Int(id))
		for _, rid := range ids {
			t.Delete(rid)
		}
	}
	clobT := c.wtab(TClobs)
	ids, _ := clobT.LookupRange("clobs_by_object",
		relstore.RangeBound{Vals: []relstore.Value{relstore.Int(id)}, Inclusive: true, Set: true},
		relstore.RangeBound{Vals: []relstore.Value{relstore.Int(id)}, Inclusive: true, Set: true})
	for _, rid := range ids {
		clobT.Delete(rid)
	}
}

// ObjectCount returns the number of cataloged objects.
func (c *Catalog) ObjectCount() int {
	return c.DB.MustTable(TObjects).Len()
}

// StorageBytes reports the catalog's resident data size (E5).
func (c *Catalog) StorageBytes() int64 {
	return c.DB.StorageBytes()
}

// ObjectInfo describes one cataloged object.
type ObjectInfo struct {
	ID        int64
	Name      string
	Owner     string
	Created   string
	Published bool
}

// Objects lists cataloged objects in ID order.
func (c *Catalog) Objects() []ObjectInfo {
	objT := c.pinView().tab(TObjects)
	// objects_pk is created with the table, so the lookup cannot fail.
	rowIDs, _ := objT.LookupRange("objects_pk", relstore.RangeBound{}, relstore.RangeBound{})
	var out []ObjectInfo
	for _, rid := range rowIDs {
		r := objT.Get(rid)
		out = append(out, ObjectInfo{ID: r[0].I, Name: r[1].S, Owner: r[2].S, Created: r[3].S, Published: r[4].I != 0})
	}
	return out
}

// SetPublished publishes or unpublishes an object. Unpublished objects
// are visible only to their owner's queries (§1: the catalog must
// "ensure the privacy of unpublished data and results").
func (c *Catalog) SetPublished(id int64, published bool) error {
	return c.mutate(func() error {
		return c.applySetPublished(op{kind: opSetPublished, id: id, published: published})
	})
}

// applySetPublished sets object o.id's published flag.
func (c *Catalog) applySetPublished(o op) error {
	t := c.wtab(TObjects)
	ids, err := t.LookupEqual("objects_pk", relstore.Int(o.id))
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("catalog: no object %d", o.id)
	}
	// An update is a Delete and an Insert in the mutation's transaction.
	r := relstore.CloneRow(t.Get(ids[0]))
	r[4] = relstore.Bool(o.published)
	t.Delete(ids[0])
	if _, err := t.Insert(r); err != nil {
		return err
	}
	c.journal(o)
	return nil
}

// visibleSet returns the objects that may appear in results for the
// given querying user: owners see their own objects and everyone sees
// published ones, so the list is the owner's objects_by_owner entries
// united with the published ones, read off the index keys. Each
// equality range arrives in ascending object order, so one linear merge
// unites them. The empty user is the catalog-internal superuser, who
// sees everything; callers skip the filter for it rather than ask for
// this list.
func (v *view) visibleSet(user string) ([]uint64, error) {
	objT := v.tab(TObjects)
	objects := func(index string, val relstore.Value) ([]uint64, error) {
		var out []uint64
		err := objT.LookupRangeTails(index, incl(val), incl(val), 1, func(tail []int64) bool {
			out = append(out, uint64(tail[0]))
			return true
		})
		return out, err
	}
	owned, err := objects("objects_by_owner", relstore.Str(user))
	if err != nil {
		return nil, err
	}
	published, err := objects("objects_by_published", relstore.Bool(true))
	if err != nil {
		return nil, err
	}
	return or(owned, published), nil
}
