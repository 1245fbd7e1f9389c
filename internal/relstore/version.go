package relstore

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// This file holds the MVCC-lite machinery: immutable database versions
// published behind a single atomic pointer, the copy-on-write
// transaction builder that produces them, and the pinned snapshots
// readers run against.
//
// Version lifecycle: Database.current always points at one immutable
// dbVersion. A writer opens a Tx (serialized by Database.wmu), builds
// the next version off the current one with structural sharing — table
// map and per-table spines are cloned lazily, row pages and B-tree
// nodes are path-copied only when first written in the transaction —
// and Commit publishes it with one atomic store. Readers pin whatever
// version is current at query start and never take a lock; versions
// are reclaimed by the garbage collector once the last pinned snapshot
// referencing them is dropped, so there is no epoch-based reclamation
// protocol to get wrong. Besides its tables a version carries one opaque
// value (Tx.SetValue) that moves with them, so an owner's own immutable
// state commits, aborts, stages and publishes exactly when its rows do.
//
// Epochs: every committed transaction's version carries epoch =
// previous epoch + 1, and Database.Generation reports the current
// epoch. The PR 2 generation-stamped caches therefore keep working
// unchanged: a cache entry stamped with the pinned epoch is valid
// exactly for that version's contents. Aborted transactions discard
// their builder outright (nothing they allocated is reachable from a
// published version), so their epoch is safely reused by the next
// transaction.

// pageSize is the number of row slots per copy-on-write page. 64 rows
// keeps the page array copy on first write small (~1.5KB of row
// headers) while bounding the per-transaction spine clone at
// rows/64 pointers.
const pageSize = 64

// rowPage is one fixed-size block of row slots. The epoch records which
// transaction allocated this copy: a transaction writing into a page
// from an older epoch first replaces it with a private copy.
type rowPage struct {
	epoch uint64
	rows  [pageSize]Row
}

// tableState is the identity of a table that is stable across versions:
// its schema, the monotonic auto-ID counter, and instrument handles.
// The auto-ID deliberately lives outside the versioned state — IDs
// handed out by an aborted transaction are simply skipped, exactly as
// the pre-MVCC rollback behaved.
type tableState struct {
	schema  *Schema
	autoID  atomic.Int64
	metrics atomic.Pointer[tableMetrics]
}

// tableMetrics bundles the per-table instrument handles (see
// Database.SetMetrics). Nil obs handles are no-ops, so a zero value is
// never stored — absence of metrics is a nil tableMetrics pointer.
type tableMetrics struct {
	reads   *obs.Counter // rows surfaced by Get and Scan
	writes  *obs.Counter // successful Insert/Delete, and each row BulkLoad stores
	lookups *obs.Counter // index probes (LookupEqual/LookupRange/LookupRangeTails calls)
}

func (st *tableState) countReads(n uint64) {
	if m := st.metrics.Load(); m != nil {
		m.reads.Add(n)
	}
}

func (st *tableState) countWrites(n uint64) {
	if m := st.metrics.Load(); m != nil {
		m.writes.Add(n)
	}
}

func (st *tableState) countLookup() {
	if m := st.metrics.Load(); m != nil {
		m.lookups.Inc()
	}
}

// tableVersion is the immutable per-version state of one table: paged
// row storage, the free list, and one B-tree per declared index. The
// epoch records which transaction built this copy, so a transaction
// clones the spine at most once per table.
type tableVersion struct {
	epoch uint64
	state *tableState
	pages []*rowPage
	nrows int64 // allocated row-ID space, including freed slots
	free  []int64
	live  int
	trees []*btree // trees[i] holds the entries of state.schema.Indexes[i]
}

// index resolves the named index: its declaration and this version's
// tree.
func (tv *tableVersion) index(name string) (*Index, *btree, error) {
	s := tv.state.schema
	i := s.indexPos(name)
	if i < 0 {
		return nil, nil, fmt.Errorf("relstore: table %s: no index %q", s.Name, name)
	}
	return &s.Indexes[i], tv.trees[i], nil
}

// row returns the row stored under id in this version, or nil.
func (tv *tableVersion) row(id int64) Row {
	if id < 0 || id >= tv.nrows {
		return nil
	}
	return tv.pages[id/pageSize].rows[id%pageSize]
}

// scan visits every live row in row-ID order until fn returns false.
func (tv *tableVersion) scan(fn func(id int64, r Row) bool) {
	tv.state.countReads(eachRow(tv.pages, tv.nrows, fn))
}

// setRow stores r under id, allocating or copy-on-writing the page as
// needed. Only called from a transaction that owns this tableVersion.
func (tv *tableVersion) setRow(epoch uint64, id int64, r Row) {
	p := id / pageSize
	for p >= int64(len(tv.pages)) {
		tv.pages = append(tv.pages, &rowPage{epoch: epoch})
	}
	pg := tv.pages[p]
	if pg.epoch != epoch {
		c := &rowPage{epoch: epoch, rows: pg.rows}
		tv.pages[p] = c
		pg = c
	}
	pg.rows[id%pageSize] = r
}

// dbVersion is one immutable published state of the whole database.
// value is the owner's opaque state that versions with the tables (see
// Tx.SetValue); relstore never looks inside it.
type dbVersion struct {
	epoch  uint64
	tables map[string]*tableVersion
	value  any
}

// Tx is a write transaction: a private builder for the next database
// version. At most one Tx is open at a time (Begin blocks on the
// database's writer mutex); Commit publishes the built version with one
// atomic pointer swap and Abort discards it. Reads through tx-bound
// table handles observe the transaction's own writes.
type Tx struct {
	db     *Database
	base   *dbVersion
	epoch  uint64
	tables map[string]*tableVersion
	value  any
	done   bool
	keyBuf []byte // scratch for index entry keys (entryKey)
}

// Begin opens a write transaction against the newest version — the
// latest staged one when a group-commit chain is pending (see
// Precommit), the published one otherwise — blocking until any other
// writer commits, precommits, or aborts.
func (db *Database) Begin() *Tx {
	db.wmu.Lock()
	base := db.current.Load()
	if h := db.head.Load(); h != nil && h.epoch > base.epoch {
		base = h
	}
	return &Tx{
		db:     db,
		base:   base,
		epoch:  base.epoch + 1,
		tables: maps.Clone(base.tables),
		value:  base.value,
	}
}

// Epoch returns the epoch the transaction will publish on Commit.
func (tx *Tx) Epoch() uint64 { return tx.epoch }

// Value returns the value the transaction's version carries: its base
// version's until SetValue replaces it.
func (tx *Tx) Value() any { return tx.value }

// SetValue sets the value the transaction's version carries. It moves
// with the tables: Commit and Publish make it visible, Abort and
// ResetHead discard it. The value must not change once the transaction
// ends, because later versions and pinned snapshots share it.
func (tx *Tx) SetValue(v any) { tx.value = v }

// version returns the built version, for Commit and Precommit.
func (tx *Tx) version() *dbVersion {
	return &dbVersion{epoch: tx.epoch, tables: tx.tables, value: tx.value}
}

// Commit publishes the built version and releases the writer mutex.
func (tx *Tx) Commit() {
	if tx.done {
		panic("relstore: Commit on finished transaction")
	}
	tx.done = true
	tx.db.current.Store(tx.version())
	tx.db.wmu.Unlock()
}

// Abort discards the built version and releases the writer mutex.
// Nothing the transaction allocated is reachable from a published
// version, so there is nothing to undo.
func (tx *Tx) Abort() {
	if tx.done {
		panic("relstore: Abort on finished transaction")
	}
	tx.done = true
	tx.db.wmu.Unlock()
}

// Staged is a built version frozen by Precommit: it is the base for the
// next transaction, but readers cannot see it until Publish. The
// catalog's group-commit path stages each mutation's version while its
// write-ahead record waits for the shared batch fsync, then publishes in
// epoch order once the batch is durable.
type Staged struct {
	db *Database
	v  *dbVersion
}

// Epoch returns the staged version's epoch.
func (s *Staged) Epoch() uint64 { return s.v.epoch }

// Precommit freezes the built version as the base for the next Begin
// without making it visible to readers, then releases the writer mutex.
// The caller must eventually either Publish the staged version (after
// its log record is durable) or abandon the whole staged chain with
// ResetHead (after a durability failure).
func (tx *Tx) Precommit() *Staged {
	if tx.done {
		panic("relstore: Precommit on finished transaction")
	}
	tx.done = true
	v := tx.version()
	tx.db.head.Store(v)
	tx.db.wmu.Unlock()
	return &Staged{db: tx.db, v: v}
}

// Publish makes a precommitted version visible to readers. It is
// idempotent and monotonic: a version at or below the published epoch is
// a no-op, so out-of-order calls from concurrent group committers are
// safe — staged versions chain (each is built on the previous one), so
// publishing epoch E also reveals every staged epoch below it.
func (db *Database) Publish(s *Staged) {
	for {
		cur := db.current.Load()
		if cur.epoch >= s.v.epoch {
			return
		}
		if db.current.CompareAndSwap(cur, s.v) {
			return
		}
	}
}

// ResetHead abandons any staged-but-unpublished versions: the next Begin
// bases on the published version again. The group-commit failure path
// uses it to discard versions whose write-ahead records never became
// durable (after publishing the durable prefix of the chain).
func (db *Database) ResetHead() {
	db.wmu.Lock()
	db.head.Store(db.current.Load())
	db.wmu.Unlock()
}

// Table returns a handle bound to this transaction, observing its
// uncommitted writes, or nil if the table does not exist.
func (tx *Tx) Table(name string) *Table {
	tv := tx.tables[name]
	if tv == nil {
		return nil
	}
	return &Table{Schema: tv.state.schema, name: name, state: tv.state, db: tx.db, tx: tx}
}

// MustTable is Table or panic, for schemas guaranteed at startup.
func (tx *Tx) MustTable(name string) *Table {
	t := tx.Table(name)
	if t == nil {
		panic(fmt.Sprintf("relstore: missing table %q", name))
	}
	return t
}

// writable returns the transaction-private tableVersion for name,
// cloning the spine (page pointers, free list, tree pointers) off the
// base version on first touch.
func (tx *Tx) writable(name string) *tableVersion {
	tv := tx.tables[name]
	if tv.epoch == tx.epoch {
		return tv
	}
	c := &tableVersion{
		epoch: tx.epoch,
		state: tv.state,
		pages: slices.Clone(tv.pages),
		nrows: tv.nrows,
		free:  slices.Clone(tv.free),
		live:  tv.live,
		trees: slices.Clone(tv.trees),
	}
	tx.tables[name] = c
	return c
}

// writableTree returns a transaction-private copy of tv's i'th tree,
// cloning it off the shared version on first touch.
func (tx *Tx) writableTree(tv *tableVersion, i int) *btree {
	bt := tv.trees[i]
	if bt.epoch != tx.epoch {
		bt = bt.clone(tx.epoch)
		tv.trees[i] = bt
	}
	return bt
}

// entryKey encodes row's entry key in ix (appendEntryKey) into the
// transaction's scratch buffer, reporting false for a row without one.
// The next call overwrites it; the B-tree copies the keys it stores.
func (tx *Tx) entryKey(ix *Index, row Row, rowID int64) ([]byte, bool) {
	var ok bool
	tx.keyBuf, ok = appendEntryKey(tx.keyBuf[:0], ix, row, rowID)
	return tx.keyBuf, ok
}

// insertRow validates and inserts r into the named table, adding its
// entries to the indexes in declaration order, and returns the new row
// ID. A unique index refuses the row when it holds a key with the same
// indexed columns; the entries already added are then removed, so the
// builder stays consistent for the transaction's remaining ops.
func (tx *Tx) insertRow(name string, r Row) (int64, error) {
	tv := tx.writable(name)
	nr, err := tv.state.schema.CheckRow(r)
	if err != nil {
		return 0, err
	}
	var id int64
	if n := len(tv.free); n > 0 {
		id = tv.free[n-1]
		tv.free = tv.free[:n-1]
	} else {
		id = tv.nrows
		tv.nrows++
	}
	tv.setRow(tx.epoch, id, nr)
	ixs := tv.state.schema.Indexes
	for i := range ixs {
		key, ok := tx.entryKey(&ixs[i], nr, id)
		if !ok {
			continue
		}
		bt := tx.writableTree(tv, i)
		if ixs[i].Unique && bt.HasPrefix(key[:len(key)-rowIDSuffixLen]) {
			tx.removeEntries(tv, i, nr, id)
			tv.setRow(tx.epoch, id, nil)
			tv.free = append(tv.free, id)
			return 0, fmt.Errorf("relstore: unique index %s violated", ixs[i].Name)
		}
		bt.Insert(key)
	}
	tv.live++
	tv.state.countWrites(1)
	return id, nil
}

// deleteRow removes the row under id, reporting whether it existed.
func (tx *Tx) deleteRow(name string, id int64) bool {
	tv := tx.writable(name)
	r := tv.row(id)
	if r == nil {
		return false
	}
	tx.removeEntries(tv, len(tv.trees), r, id)
	tv.setRow(tx.epoch, id, nil)
	tv.free = append(tv.free, id)
	tv.live--
	tv.state.countWrites(1)
	return true
}

// removeEntries deletes the entries of row r, stored under id, from the
// first n indexes of tv.
func (tx *Tx) removeEntries(tv *tableVersion, n int, r Row, id int64) {
	ixs := tv.state.schema.Indexes
	for i := range ixs[:n] {
		if key, ok := tx.entryKey(&ixs[i], r, id); ok {
			tx.writableTree(tv, i).Delete(key)
		}
	}
}

// createTable adds a table to the building version.
func (tx *Tx) createTable(s *Schema) (*Table, error) {
	if _, dup := tx.tables[s.Name]; dup {
		return nil, fmt.Errorf("relstore: table %q already exists", s.Name)
	}
	state := &tableState{schema: s}
	if reg := tx.db.metrics.Load(); reg != nil {
		state.setMetrics(reg)
	}
	trees := make([]*btree, len(s.Indexes))
	for i := range trees {
		trees[i] = &btree{root: &bnode{epoch: tx.epoch, leaf: true}, epoch: tx.epoch}
	}
	tx.tables[s.Name] = &tableVersion{epoch: tx.epoch, state: state, trees: trees}
	return &Table{Schema: s, name: s.Name, state: state, db: tx.db, tx: tx}, nil
}

// Snapshot is a pinned, immutable view of the database as of one
// committed version. All reads through it are lock-free and observe
// exactly the pinned epoch: no torn reads, no later writes. Snapshots
// are cheap (one atomic load) and need no release — dropping the last
// reference lets the garbage collector reclaim the version.
type Snapshot struct {
	db *Database
	v  *dbVersion
}

// Snapshot pins the current version.
func (db *Database) Snapshot() *Snapshot {
	return &Snapshot{db: db, v: db.current.Load()}
}

// Epoch returns the pinned version's epoch (its Generation reading).
func (s *Snapshot) Epoch() uint64 { return s.v.epoch }

// Value returns the value the pinned version carries (see Tx.SetValue).
func (s *Snapshot) Value() any { return s.v.value }

// Table returns a read-only handle for the named table in the pinned
// version, or nil. Mutating methods on the handle panic.
func (s *Snapshot) Table(name string) *Table {
	tv := s.v.tables[name]
	if tv == nil {
		return nil
	}
	return &Table{Schema: tv.state.schema, name: name, state: tv.state, db: s.db, pin: s.v}
}

// MustTable is Table or panic, for schemas guaranteed at startup.
func (s *Snapshot) MustTable(name string) *Table {
	t := s.Table(name)
	if t == nil {
		panic(fmt.Sprintf("relstore: missing table %q", name))
	}
	return t
}

// TableNames returns the pinned version's sorted table names.
func (s *Snapshot) TableNames() []string {
	names := make([]string, 0, len(s.v.tables))
	for n := range s.v.tables {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
