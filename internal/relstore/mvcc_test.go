package relstore

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Snapshot-isolation oracle suite. A randomized op log of small
// transactions runs against the multi-version database while a
// single-threaded reference interpreter — a plain map, no relstore code
// — replays the same log and records the expected logical contents
// after every commit. Committed transactions advance the epoch by
// exactly one, so the interpreter's i-th state is the ground truth for
// epoch base+i; every pinned snapshot must fingerprint to exactly its
// epoch's state, no matter how many later versions have been published
// (structural sharing must never leak a newer page or index into an
// older version) and no matter how the reads interleave with writers
// (a pinned reader can see neither torn state nor future writes).

// mvccOp addresses rows by the logical key column, not by row ID — row
// IDs are an artifact the oracle deliberately ignores.
type mvccOp struct {
	del     bool
	key     int64
	payload string
	n       float64
}

// mvccTx is one transaction of the op log; aborted transactions must
// leave no trace.
type mvccTx struct {
	ops   []mvccOp
	abort bool
}

type mvccRef struct {
	payload string
	n       float64
}

// mvccModel is the reference interpreter's state: logical key → value.
type mvccModel map[int64]mvccRef

func (m mvccModel) apply(tx mvccTx) {
	if tx.abort {
		return
	}
	for _, op := range tx.ops {
		if op.del {
			delete(m, op.key)
		} else {
			m[op.key] = mvccRef{payload: op.payload, n: op.n}
		}
	}
}

func (m mvccModel) fingerprint() string {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, k := range keys {
		r := m[k]
		fmt.Fprintf(&b, "%d=%s/%g;", k, r.payload, r.n)
	}
	return b.String()
}

// tableFingerprint serializes a table binding's logical contents in key
// order, row IDs excluded.
func tableFingerprint(t *Table) string {
	type kv struct {
		k       int64
		payload string
		n       float64
	}
	var rows []kv
	t.Scan(func(_ int64, r Row) bool {
		rows = append(rows, kv{k: r[0].I, payload: r[1].S, n: r[2].F})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%d=%s/%g;", r.k, r.payload, r.n)
	}
	return b.String()
}

// genMvccLog builds a deterministic op log: keys drawn from a small
// space so inserts, updates, deletes, and key reuse all occur; roughly
// one transaction in eight aborts.
func genMvccLog(rng *rand.Rand, txs, keySpace int) []mvccTx {
	payloads := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	log := make([]mvccTx, txs)
	for i := range log {
		n := 1 + rng.Intn(4)
		ops := make([]mvccOp, n)
		for j := range ops {
			key := int64(rng.Intn(keySpace))
			if rng.Intn(3) == 0 {
				ops[j] = mvccOp{del: true, key: key}
			} else {
				ops[j] = mvccOp{
					key:     key,
					payload: payloads[rng.Intn(len(payloads))],
					n:       float64(rng.Intn(1000)),
				}
			}
		}
		log[i] = mvccTx{ops: ops, abort: rng.Intn(8) == 0}
	}
	return log
}

// newMvccDB creates the suite's table: unique B-tree on the key, a
// non-unique index on the payload so index maintenance is exercised on
// both kinds.
func newMvccDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	tab, err := db.CreateTable("acct",
		Column{Name: "k", Type: KInt, NotNull: true},
		Column{Name: "payload", Type: KString, NotNull: true},
		Column{Name: "n", Type: KFloat, NotNull: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("pk", true, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("by_payload", false, "payload"); err != nil {
		t.Fatal(err)
	}
	return db
}

// applyMvccTx runs one log transaction through a real Tx, addressing
// rows by key via the transaction's own index state (read-your-writes).
func applyMvccTx(db *Database, mtx mvccTx) error {
	tx := db.Begin()
	tab := tx.MustTable("acct")
	for _, op := range mtx.ops {
		ids, err := tab.LookupEqual("pk", Int(op.key))
		if err != nil {
			tx.Abort()
			return err
		}
		switch {
		case op.del:
			if len(ids) > 0 {
				tab.Delete(ids[0])
			}
		case len(ids) > 0:
			if err := tab.Update(ids[0], Row{Int(op.key), Str(op.payload), Float(op.n)}); err != nil {
				tx.Abort()
				return err
			}
		default:
			if _, err := tab.Insert(Row{Int(op.key), Str(op.payload), Float(op.n)}); err != nil {
				tx.Abort()
				return err
			}
		}
	}
	if mtx.abort {
		tx.Abort()
		return nil
	}
	tx.Commit()
	return nil
}

// TestSnapshotIsolationOracle replays the op log sequentially, pinning
// a snapshot after every transaction and keeping all of them alive. At
// the end, every retained snapshot must still fingerprint to exactly
// the reference state of the commit that produced its epoch — the
// torn-read / future-write check, and the proof that structural sharing
// never mutated a published version in place.
func TestSnapshotIsolationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := newMvccDB(t)
	log := genMvccLog(rng, 300, 40)

	model := make(mvccModel)
	base := db.Generation()
	type pinned struct {
		snap *Snapshot
		want string
	}
	var pins []pinned
	pins = append(pins, pinned{snap: db.Snapshot(), want: model.fingerprint()})

	committed := uint64(0)
	for i, mtx := range log {
		if err := applyMvccTx(db, mtx); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		model.apply(mtx)
		if !mtx.abort {
			committed++
		}
		snap := db.Snapshot()
		if got, want := snap.Epoch(), base+committed; got != want {
			t.Fatalf("tx %d: epoch %d, want %d (committed txs advance the epoch by exactly one; aborts not at all)", i, got, want)
		}
		pins = append(pins, pinned{snap: snap, want: model.fingerprint()})

		// Spot-check the unique index agrees with the scan inside the
		// same snapshot.
		if i%37 == 0 {
			tab := snap.MustTable("acct")
			for k, ref := range model {
				ids, err := tab.LookupEqual("pk", Int(k))
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != 1 {
					t.Fatalf("tx %d: key %d: pk lookup returned %d rows, want 1", i, k, len(ids))
				}
				if r := tab.Get(ids[0]); r[1].S != ref.payload {
					t.Fatalf("tx %d: key %d: payload %q, want %q", i, k, r[1].S, ref.payload)
				}
			}
		}
	}

	// Every retained snapshot must still match the state it pinned.
	for i, p := range pins {
		if got := tableFingerprint(p.snap.MustTable("acct")); got != p.want {
			t.Fatalf("pinned snapshot %d (epoch %d) drifted:\n got  %s\n want %s", i, p.snap.Epoch(), got, p.want)
		}
	}
}

// TestSnapshotIsolationConcurrent is the concurrent half of the oracle:
// the same deterministic op log runs from a writer goroutine while
// readers continuously pin snapshots and verify each against the
// reference state for its epoch, reading each snapshot twice with reads
// interleaving arbitrarily with commits. Run under -race (make mvcc).
func TestSnapshotIsolationConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := newMvccDB(t)
	log := genMvccLog(rng, 400, 32)

	// Dry-run the interpreter to build the epoch → expected-state table.
	model := make(mvccModel)
	expected := []string{model.fingerprint()}
	for _, mtx := range log {
		model.apply(mtx)
		if !mtx.abort {
			expected = append(expected, model.fingerprint())
		}
	}
	base := db.Generation()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, mtx := range log {
			if err := applyMvccTx(db, mtx); err != nil {
				t.Errorf("writer: tx %d: %v", i, err)
				return
			}
		}
	}()

	const readers = 4
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var lastEpoch uint64
			running := true
			for running {
				select {
				case <-done:
					// One final verification pass after the writer stops.
					running = false
				default:
				}
				snap := db.Snapshot()
				e := snap.Epoch()
				if e < lastEpoch {
					t.Errorf("reader %d: epoch went backwards: %d after %d", r, e, lastEpoch)
					return
				}
				lastEpoch = e
				idx := int(e - base)
				if idx < 0 || idx >= len(expected) {
					t.Errorf("reader %d: epoch %d outside the committed range [%d, %d]", r, e, base, base+uint64(len(expected))-1)
					return
				}
				tab := snap.MustTable("acct")
				first := tableFingerprint(tab)
				if first != expected[idx] {
					t.Errorf("reader %d: epoch %d state mismatch:\n got  %s\n want %s", r, e, first, expected[idx])
					return
				}
				// Re-read the same pinned snapshot: with the writer racing,
				// any in-place mutation of a published version shows up as
				// the two reads disagreeing.
				if again := tableFingerprint(tab); again != first {
					t.Errorf("reader %d: pinned snapshot (epoch %d) changed between reads", r, e)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	rg.Wait()
}
