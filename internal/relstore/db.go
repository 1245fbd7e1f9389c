package relstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// Database is a named collection of tables. Tables are created, never
// dropped, so a table handle resolves in every version from its creation
// on.
//
// Concurrency: the database is multi-version. One immutable version is
// published behind an atomic pointer; readers pin it (directly via
// Snapshot, or implicitly per call on plain table handles) and never
// take a lock, while writers — serialized by a single writer mutex —
// build the next version copy-on-write and publish it with one pointer
// swap (see version.go). Mutating methods on Database and on db-bound
// Table handles auto-commit one transaction per call; multi-op atomic
// batches go through Begin/Commit.
type Database struct {
	// current is the published version. Load to read, store only while
	// holding wmu.
	current atomic.Pointer[dbVersion]

	// head is the group-commit staging head: the newest precommitted
	// version, which the next Begin bases on even though readers cannot
	// see it yet. Stored under wmu (by Precommit and ResetHead); nil or
	// behind current when no staged chain is pending.
	head atomic.Pointer[dbVersion]

	// wmu serializes writers: held from Begin to Commit/Abort.
	wmu sync.Mutex

	// metrics, when non-nil, supplies per-table row read/write/lookup
	// counters.
	metrics atomic.Pointer[obs.Registry]
}

// SetMetrics attaches per-table instrumentation from reg to every
// existing and future table of the database, under the
// relstore_row_reads_total / relstore_row_writes_total /
// relstore_index_lookups_total families labeled {table="..."}. Passing
// nil is a no-op (the disabled default).
func (db *Database) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	db.metrics.Store(reg)
	for _, tv := range db.current.Load().tables {
		tv.state.setMetrics(reg)
	}
}

// NewDatabase returns an empty database at epoch zero.
func NewDatabase() *Database {
	db := &Database{}
	db.current.Store(&dbVersion{tables: make(map[string]*tableVersion)})
	return db
}

// CreateTable creates a table from column definitions.
func (db *Database) CreateTable(name string, cols ...Column) (*Table, error) {
	s, err := NewSchema(name, cols...)
	if err != nil {
		return nil, err
	}
	tx := db.Begin()
	t, err := tx.createTable(s)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	tx.Commit()
	// Rebind the handle from the finished transaction to the live
	// database, so further use reads published versions.
	t.tx = nil
	return t, nil
}

// Table returns a handle for the named table, or nil. The handle reads
// whatever version is current at each call; pin a Snapshot for a
// consistent multi-read view.
func (db *Database) Table(name string) *Table {
	tv := db.current.Load().tables[name]
	if tv == nil {
		return nil
	}
	return &Table{Schema: tv.state.schema, name: name, state: tv.state, db: db}
}

// MustTable returns the named table or panics; for internal schemas whose
// creation is guaranteed at startup.
func (db *Database) MustTable(name string) *Table {
	t := db.Table(name)
	if t == nil {
		panic(fmt.Sprintf("relstore: missing table %q", name))
	}
	return t
}

// Generation returns the database's mutation generation: the epoch of
// the published version, which advances by one on every committed
// transaction (including auto-committed single mutations). Two equal
// readings guarantee the same immutable version, hence identical table
// contents.
func (db *Database) Generation() uint64 { return db.current.Load().epoch }

// TableNames returns the sorted table names of the current version.
func (db *Database) TableNames() []string {
	return db.Snapshot().TableNames()
}

// StorageBytes estimates the resident bytes of all live rows across all
// tables of the current version: each row's slice header, its Value
// structs, and its string payloads. Used by the storage experiments (E5,
// A2).
func (db *Database) StorageBytes() int64 {
	var total int64
	for _, tv := range db.current.Load().tables {
		tv.scan(func(_ int64, r Row) bool {
			total += rowBytes(r)
			return true
		})
	}
	return total
}

// rowBytes is one row's share of StorageBytes.
func rowBytes(r Row) int64 {
	b := int64(unsafe.Sizeof(r)) + int64(len(r))*int64(unsafe.Sizeof(Value{}))
	for _, v := range r {
		b += int64(len(v.S))
	}
	return b
}
