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
	TAttrDef  = "attr_def"
	TElemDef  = "elem_def"
)

// Options configures a catalog instance.
type Options struct {
	// AutoRegister creates definitions for unknown dynamic attributes at
	// ingest instead of leaving them CLOB-only.
	AutoRegister bool
	// Lenient ignores unknown structural elements instead of rejecting
	// the document.
	Lenient bool
	// DisableInvertedList drops sub-attribute inverted-list maintenance
	// and forces queries onto a recursive fallback; for the A1 ablation
	// only.
	DisableInvertedList bool
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
	Reg    *core.Registry
	DB     *relstore.Database

	shredder *core.Shredder
	opts     Options

	// mu serializes mutations' version builds (ingest, delete, publish,
	// collection membership, dynamic registration) and guards c.dur,
	// c.tx and the capture buffers. A durable writer releases it before
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

	// Write-ahead capture (see durable.go). capturing/captured are only
	// touched under the write lock: the relstore journal hook appends
	// every applied row operation to captured while a mutation runs, so
	// mutate can commit them as one log record before the version swap,
	// or abort the builder.
	capturing bool
	captured  []relstore.TableOp
	dur       *durability

	// tx is the relstore transaction of the mutation currently holding
	// the write lock (nil outside mutations); interior helpers address
	// tables through c.wtab so their writes land in this builder instead
	// of auto-committing per row. Guarded by the write lock.
	tx *relstore.Tx

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

// Open builds a catalog for a finalized schema: it creates the relational
// schema, seeds the definition tables from the registry, and loads the
// global ordering tables.
func Open(schema *xmlschema.Schema, opts Options) (*Catalog, error) {
	reg, err := core.NewRegistry(schema)
	if err != nil {
		return nil, err
	}
	c := &Catalog{
		Schema:   schema,
		Reg:      reg,
		DB:       relstore.NewDatabase(),
		shredder: core.NewShredder(schema, reg),
		opts:     opts,
		clock:    time.Now,
	}
	c.initObs()
	c.DB.SetMetrics(c.obsv.reg)
	c.initCaches()
	c.DB.SetJournal(func(op relstore.TableOp) {
		if c.capturing {
			c.captured = append(c.captured, op)
		}
	})
	if err := c.createTables(); err != nil {
		return nil, err
	}
	if err := c.initCollections(); err != nil {
		return nil, err
	}
	// Batch the bulk seeding into one transaction: one published version
	// instead of a copy-on-write commit per row.
	if err := c.withTx(c.syncDefTables); err != nil {
		return nil, err
	}
	return c, nil
}

func col(name string, k relstore.Kind, notNull bool) relstore.Column {
	return relstore.Column{Name: name, Type: k, NotNull: notNull}
}

func (c *Catalog) createTables() error {
	type tdef struct {
		name string
		cols []relstore.Column
	}
	tables := []tdef{
		{TObjects, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("name", relstore.KString, false),
			col("owner", relstore.KString, false),
			col("created", relstore.KString, false),
			col("published", relstore.KBool, false),
		}},
		{TAttrData, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("attr_id", relstore.KInt, true),
			col("seq_id", relstore.KInt, true),
			col("clob_seq", relstore.KInt, false),
		}},
		{TElemData, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("attr_id", relstore.KInt, true),
			col("seq_id", relstore.KInt, true),
			col("elem_id", relstore.KInt, true),
			col("elem_seq", relstore.KInt, true),
			col("sval", relstore.KString, false),
			col("nval", relstore.KFloat, false),
		}},
		{TSubAttrs, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("child_attr_id", relstore.KInt, true),
			col("child_seq", relstore.KInt, true),
			col("anc_attr_id", relstore.KInt, true),
			col("anc_seq", relstore.KInt, true),
			col("depth", relstore.KInt, true),
		}},
		{TClobs, []relstore.Column{
			col("object_id", relstore.KInt, true),
			col("node_order", relstore.KInt, true),
			col("clob_seq", relstore.KInt, true),
			col("attr_id", relstore.KInt, false),
			col("seq_id", relstore.KInt, false),
			col("clob", relstore.KString, true),
		}},
		{TAttrDef, []relstore.Column{
			col("attr_id", relstore.KInt, true),
			col("name", relstore.KString, true),
			col("source", relstore.KString, false),
			col("parent_attr_id", relstore.KInt, false),
			col("schema_order", relstore.KInt, false),
			col("queryable", relstore.KBool, false),
			col("dynamic", relstore.KBool, false),
			col("owner", relstore.KString, false),
		}},
		{TElemDef, []relstore.Column{
			col("elem_id", relstore.KInt, true),
			col("attr_id", relstore.KInt, true),
			col("name", relstore.KString, true),
			col("source", relstore.KString, false),
			col("dtype", relstore.KString, false),
			col("owner", relstore.KString, false),
		}},
	}
	for _, td := range tables {
		if _, err := c.DB.CreateTable(td.name, td.cols...); err != nil {
			return err
		}
	}
	type idef struct {
		table, name string
		kind        relstore.IndexKind
		unique      bool
		cols        []string
	}
	// The Figure-4 indexes (attr_data_by_attr, elem_data_by_sval/nval,
	// sub_attrs_by_child, objects_by_owner/published) end in the instance
	// columns, so the executor reads (object, seq) straight off the keys
	// (relstore.LookupRangeTails) and never fetches a row.
	indexes := []idef{
		{TObjects, "objects_pk", relstore.BTreeIndex, true, []string{"object_id"}},
		{TObjects, "objects_by_owner", relstore.BTreeIndex, false, []string{"owner", "object_id"}},
		{TObjects, "objects_by_published", relstore.BTreeIndex, false, []string{"published", "object_id"}},
		{TAttrData, "attr_data_by_attr", relstore.BTreeIndex, false, []string{"attr_id", "object_id", "seq_id"}},
		{TAttrData, "attr_data_by_object", relstore.HashIndex, false, []string{"object_id"}},
		{TElemData, "elem_data_by_sval", relstore.BTreeIndex, false, []string{"elem_id", "sval", "object_id", "seq_id"}},
		{TElemData, "elem_data_by_nval", relstore.BTreeIndex, false, []string{"elem_id", "nval", "object_id", "seq_id"}},
		{TElemData, "elem_data_by_object", relstore.HashIndex, false, []string{"object_id"}},
		{TSubAttrs, "sub_attrs_by_child", relstore.BTreeIndex, false, []string{"child_attr_id", "anc_attr_id", "object_id", "child_seq", "anc_seq"}},
		{TSubAttrs, "sub_attrs_by_object", relstore.HashIndex, false, []string{"object_id"}},
		{TClobs, "clobs_by_object", relstore.BTreeIndex, false, []string{"object_id", "node_order", "clob_seq"}},
		{TAttrDef, "attr_def_pk", relstore.BTreeIndex, true, []string{"attr_id"}},
		{TElemDef, "elem_def_pk", relstore.BTreeIndex, true, []string{"elem_id"}},
	}
	for _, id := range indexes {
		if _, err := c.DB.MustTable(id.table).CreateIndex(id.name, id.kind, id.unique, id.cols...); err != nil {
			return err
		}
	}
	return nil
}

// syncDefTables mirrors the registry into attr_def/elem_def. Called at
// Open and after dynamic registration, so every definition reaches the
// write-ahead log with the mutation that made it: WAL replay rebuilds
// the registry from these tables (restoreRegistryFromTables).
func (c *Catalog) syncDefTables() error {
	attrT := c.wtab(TAttrDef)
	elemT := c.wtab(TElemDef)
	have := make(map[int64]bool)
	attrT.Scan(func(_ int64, r relstore.Row) bool {
		have[r[0].I] = true
		return true
	})
	for _, d := range c.Reg.Attrs() {
		if have[d.ID] {
			continue
		}
		_, err := attrT.Insert(relstore.Row{
			relstore.Int(d.ID), relstore.Str(d.Name), relstore.Str(d.Source),
			relstore.Int(d.ParentID), relstore.Int(int64(d.SchemaOrder)),
			relstore.Bool(d.Queryable), relstore.Bool(d.Dynamic), relstore.Str(d.Owner),
		})
		if err != nil {
			return err
		}
	}
	haveE := make(map[int64]bool)
	elemT.Scan(func(_ int64, r relstore.Row) bool {
		haveE[r[0].I] = true
		return true
	})
	for _, d := range c.Reg.Elems() {
		if haveE[d.ID] {
			continue
		}
		_, err := elemT.Insert(relstore.Row{
			relstore.Int(d.ID), relstore.Int(d.AttrID), relstore.Str(d.Name),
			relstore.Str(d.Source), relstore.Str(d.Type.String()), relstore.Str(d.Owner),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RegisterAttr registers a dynamic attribute definition and mirrors it
// into the definition tables. parentID 0 registers a top-level dynamic
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
	def, err := c.Reg.RegisterAttr(name, source, parentID, order, owner)
	if err != nil {
		return nil, err
	}
	if err := c.mutate(c.syncDefTables); err != nil {
		return nil, err
	}
	return def, nil
}

// RegisterElem registers a dynamic element definition under an attribute.
func (c *Catalog) RegisterElem(name, source string, attrID int64, dt core.DataType, owner string) (*core.ElemDef, error) {
	def, err := c.Reg.RegisterElem(name, source, attrID, dt, owner)
	if err != nil {
		return nil, err
	}
	if err := c.mutate(c.syncDefTables); err != nil {
		return nil, err
	}
	return def, nil
}

// Ingest shreds a document and stores it for the given owner, returning
// the new object ID. On validation failure nothing is stored.
func (c *Catalog) Ingest(owner string, doc *xmldoc.Node) (int64, error) {
	res, err := c.shredder.Shred(doc, core.Options{
		Owner:        owner,
		AutoRegister: c.opts.AutoRegister,
		Lenient:      c.opts.Lenient,
	})
	if err != nil {
		return 0, err
	}

	var id int64
	err = c.mutate(func() error {
		if c.opts.AutoRegister {
			if err := c.syncDefTables(); err != nil {
				return err
			}
		}
		objT := c.wtab(TObjects)
		id = objT.NextAutoID()
		name := doc.Tag
		if rid := doc.Child("resourceID"); rid != nil {
			name = rid.Text
		}
		if _, err := objT.Insert(relstore.Row{
			relstore.Int(id), relstore.Str(name), relstore.Str(owner),
			relstore.Str(c.clock().UTC().Format(time.RFC3339)), relstore.Bool(false),
		}); err != nil {
			return err
		}
		if err := c.insertShred(id, res); err != nil {
			return fmt.Errorf("catalog: ingest of object %d failed: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// IngestXML parses and ingests a document held in a string.
func (c *Catalog) IngestXML(owner, xml string) (int64, error) {
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		return 0, err
	}
	return c.Ingest(owner, doc)
}

func (c *Catalog) insertShred(id int64, res *core.ShredResult) error {
	oid := relstore.Int(id)
	attrT := c.wtab(TAttrData)
	for _, a := range res.Attrs {
		if _, err := attrT.Insert(relstore.Row{oid, relstore.Int(a.AttrID), relstore.Int(int64(a.Seq)), relstore.Null()}); err != nil {
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
			oid, relstore.Int(e.AttrID), relstore.Int(int64(e.AttrSeq)),
			relstore.Int(e.ElemID), relstore.Int(int64(e.ElemSeq)),
			relstore.Str(e.Value), nval,
		})
		if err != nil {
			return err
		}
	}
	subT := c.wtab(TSubAttrs)
	for _, sa := range res.SubAttrs {
		// With the inverted list disabled (A1 ablation) only direct-parent
		// links are kept; queries then chase parents recursively.
		if c.opts.DisableInvertedList && sa.Depth != 1 {
			continue
		}
		_, err := subT.Insert(relstore.Row{
			oid, relstore.Int(sa.ChildAttrID), relstore.Int(int64(sa.ChildSeq)),
			relstore.Int(sa.AncAttrID), relstore.Int(int64(sa.AncSeq)),
			relstore.Int(int64(sa.Depth)),
		})
		if err != nil {
			return err
		}
	}
	clobT := c.wtab(TClobs)
	for _, cl := range res.Clobs {
		attrID := relstore.Null()
		seq := relstore.Null()
		if cl.AttrID != 0 {
			attrID = relstore.Int(cl.AttrID)
			seq = relstore.Int(int64(cl.AttrSeq))
		}
		_, err := clobT.Insert(relstore.Row{
			oid, relstore.Int(int64(cl.NodeOrder)), relstore.Int(int64(cl.ClobSeq)),
			attrID, seq, relstore.Str(cl.XML),
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
	decl := c.Schema.AttributeByTag(frag.Tag)
	if decl == nil {
		return fmt.Errorf("catalog: <%s> is not a metadata attribute of schema %s", frag.Tag, c.Schema.Name)
	}
	// All reads run inside the mutation's transaction (c.wtab): another
	// writer's staged-but-unpublished version may be the base of this
	// transaction, and reading the published tables instead would
	// compute stale sibling counters.
	return c.mutate(func() error {
		ids, err := c.wtab(TObjects).LookupEqual("objects_pk", relstore.Int(objectID))
		if err != nil {
			return err
		}
		if len(ids) == 0 {
			return fmt.Errorf("catalog: no object %d", objectID)
		}
		// Current same-sibling counters for the object.
		clobSeq := map[int]int{}
		clobT := c.wtab(TClobs)
		rowIDs, err := clobT.LookupRange("clobs_by_object",
			relstore.RangeBound{Vals: []relstore.Value{relstore.Int(objectID)}, Inclusive: true, Set: true},
			relstore.RangeBound{Vals: []relstore.Value{relstore.Int(objectID)}, Inclusive: true, Set: true})
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
		aids, err := attrT.LookupEqual("attr_data_by_object", relstore.Int(objectID))
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
		res, err := c.shredder.ShredAttribute(frag, decl, core.Options{
			Owner:        owner,
			AutoRegister: c.opts.AutoRegister,
			Lenient:      c.opts.Lenient,
		}, clobSeq, attrSeq)
		if err != nil {
			return err
		}
		if c.opts.AutoRegister {
			if err := c.syncDefTables(); err != nil {
				return err
			}
		}
		return c.insertShred(objectID, res)
	})
}

// Delete removes an object and all its rows, reporting whether it
// existed. A durability failure leaves the object in place.
func (c *Catalog) Delete(id int64) (bool, error) {
	existed := false
	if err := c.mutate(func() error {
		// The existence check reads the transaction's view: a staged
		// (durable-pending, not yet published) ingest of this object must
		// count as existing or the delete would silently no-op.
		ids, _ := c.wtab(TObjects).LookupEqual("objects_pk", relstore.Int(id))
		if len(ids) == 0 {
			return errNotFound
		}
		existed = true
		c.removeObjectLocked(id)
		return nil
	}); err != nil && !errors.Is(err, errNotFound) {
		return false, err
	}
	return existed, nil
}

// errNotFound is an internal sentinel for mutations whose target does
// not exist: it aborts the transaction without surfacing an error when
// the API reports absence through a return value instead.
var errNotFound = errors.New("catalog: not found")

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
		out = append(out, ObjectInfo{ID: r[0].I, Name: r[1].S, Owner: r[2].S, Created: r[3].S, Published: r[4].AsBool()})
	}
	return out
}

// SetPublished publishes or unpublishes an object. Unpublished objects
// are visible only to their owner's queries (§1: the catalog must
// "ensure the privacy of unpublished data and results").
func (c *Catalog) SetPublished(id int64, published bool) error {
	return c.mutate(func() error {
		t := c.wtab(TObjects)
		ids, err := t.LookupEqual("objects_pk", relstore.Int(id))
		if err != nil {
			return err
		}
		if len(ids) == 0 {
			return fmt.Errorf("catalog: no object %d", id)
		}
		r := relstore.CloneRow(t.Get(ids[0]))
		r[4] = relstore.Bool(published)
		return t.Update(ids[0], r)
	})
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
