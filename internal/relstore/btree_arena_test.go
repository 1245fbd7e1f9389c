package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// Tests of the B-tree's shared key arenas (btree.go, "Key storage"):
// copy-on-write copies of a node append into one backing array, so a
// version pinned by a reader must keep its keys byte for byte while
// later transactions append, abort, and append again over the bytes the
// aborted copies wrote.

// arenaEnd returns the address just past a's length in its backing
// array, which identifies where the next in-place append lands.
func arenaEnd(a []byte) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(a))) + uintptr(len(a))
}

// TestArenaPinnedKeysSurviveAbortAndReappend pins a one-leaf tree whose
// arena has spare capacity, appends a key in a transaction that aborts,
// then appends a different key in the next transaction at the same
// epoch, over the same bytes. The pinned version's keys must stay byte
// for byte what they were.
func TestArenaPinnedKeysSurviveAbortAndReappend(t *testing.T) {
	pinned := newBtree()
	pinned.epoch = 1
	for i := 0; ; i++ {
		pinned.Insert([]byte(fmt.Sprintf("key-%02d", i)))
		a := pinned.root.arena
		if cap(a)-len(a) >= entryLen([]byte("key-zz")) {
			break
		}
	}
	if !pinned.root.leaf {
		t.Fatal("fixture should be a single leaf")
	}
	before := treeKeys(pinned, nil, nil)
	end := arenaEnd(pinned.root.arena)

	aborted := pinned.clone(2)
	aborted.Insert([]byte("key-zz"))
	if arenaEnd(aborted.root.arena) != end+uintptr(entryLen([]byte("key-zz"))) {
		t.Fatal("the aborted copy did not append into the shared arena")
	}
	// The transaction aborts: its copy is dropped and epoch 2 is reused.
	next := pinned.clone(2)
	next.Insert([]byte("key-yy"))
	if arenaEnd(next.root.arena) != arenaEnd(aborted.root.arena) {
		t.Fatal("the next copy did not append over the aborted copy's bytes")
	}
	if treeHas(next, []byte("key-zz")) {
		t.Error("the aborted key is visible in the next version")
	}
	if !treeHas(next, []byte("key-yy")) {
		t.Error("key-yy missing from the next version")
	}

	after := treeKeys(pinned, nil, nil)
	if len(after) != len(before) {
		t.Fatalf("pinned version holds %d keys, had %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pinned key %d changed from %q to %q", i, before[i], after[i])
		}
	}
	if treeHas(pinned, []byte("key-yy")) {
		t.Error("the pinned version sees a later key")
	}
	for _, bt := range []*btree{pinned, next} {
		if err := bt.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaCompactsWhenDeadKeysDominate churns one leaf until most of
// its arena is dead keys, then requires a growing append to pack the
// live ones, and the result to still match the reference.
func TestArenaCompactsWhenDeadKeysDominate(t *testing.T) {
	bt := newBtree()
	ref := map[string]bool{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("k%02d-%d", i%40, i)
		bt.Insert([]byte(k))
		ref[k] = true
		if i >= 20 {
			old := fmt.Sprintf("k%02d-%d", (i-20)%40, i-20)
			bt.Delete([]byte(old))
			delete(ref, old)
		}
	}
	if !bt.root.leaf {
		t.Fatal("fixture should stay a single leaf")
	}
	// Appends alone would leave about 4000 keys' bytes behind.
	if live := bt.root.liveBytes(0, len(bt.root.offs)); len(bt.root.arena) > 8*live {
		t.Fatalf("arena of %d bytes for %d live ones was never compacted", len(bt.root.arena), live)
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := treeKeys(bt, nil, nil), sortedSet(ref); !slices.Equal(got, want) {
		t.Fatalf("scan saw %d keys, reference has %d", len(got), len(want))
	}
}

// FuzzBtreeVersions drives a unique B-tree index through seeded
// transactions — inserts (some refused as duplicates), deletes, key
// updates — that commit, abort, or precommit and are later published or
// abandoned by ResetHead. Every published version stays pinned, and at
// the end each must still hold its oracle's key set, through the prefix
// probe and through Ascend over random bounds, bounds equal to its
// separators among them.
// Keys are short and long (at least 128 encoded bytes, so the arena's
// length prefix takes two bytes) and share prefixes. checkInvariants
// runs on every version a commit or precommit builds.
func FuzzBtreeVersions(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, txs uint8) {
		btreeVersions(t, seed, txs, false)
	})
}

// FuzzBtreeVersionsFromBulk is FuzzBtreeVersions starting from a tree
// BulkLoad built bottom-up — full leaves with exact-size arenas, which
// the first copy-on-write insert into a leaf must grow and split —
// instead of an empty one.
func FuzzBtreeVersionsFromBulk(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed*53))
	}
	f.Fuzz(func(t *testing.T, seed int64, txs uint8) {
		btreeVersions(t, seed, txs, true)
	})
}

// btreeVersions is the body of the FuzzBtreeVersions targets; bulk
// first loads the table with a seeded share of the key pool through
// BulkLoad.
func btreeVersions(t *testing.T, seed int64, txs uint8, bulk bool) {
	rng := rand.New(rand.NewSource(seed))
	pool := versionKeys(rng)
	db := NewDatabase()
	tab, err := db.CreateTable("kv", []Column{{Name: "k", Type: KString, NotNull: true}, {Name: "v", Type: KInt}}, uniqueIx("by_k", "k"))
	if err != nil {
		t.Fatal(err)
	}
	// An oracle maps each encoded key a version holds to its row ID.
	published := map[string]int64{} // the published version's oracle
	if bulk {
		var rows []Row
		for _, k := range pool {
			ek := string(EncodeKey(Str(k)))
			if _, dup := published[ek]; !dup && rng.Intn(4) != 0 {
				published[ek] = int64(len(rows))
				rows = append(rows, Row{Str(k), Int(0)})
			}
		}
		i := 0
		if err := tab.BulkLoad(len(rows), func() (Row, error) { i++; return rows[i-1], nil }); err != nil {
			t.Fatal(err)
		}
	}
	kvTree := func(v *dbVersion) *btree { return v.tables["kv"].trees[0] }
	head := published // the newest committed or staged version's
	type staged struct {
		s    *Staged
		want map[string]int64
	}
	type pinned struct {
		snap *Snapshot
		want map[string]int64
	}
	var chain []staged
	var pins []pinned
	pin := func(want map[string]int64) {
		pins = append(pins, pinned{snap: db.Snapshot(), want: want})
	}
	pin(published)

	for n := 40 + int(txs); n > 0; n-- {
		switch r := rng.Intn(10); {
		case r == 0 && len(chain) > 0:
			db.Publish(chain[0].s)
			published, chain = chain[0].want, chain[1:]
			pin(published)
			continue
		case r == 1 && len(chain) > 0:
			db.ResetHead()
			chain, head = nil, published
			continue
		}
		tx := db.Begin()
		want := maps.Clone(head)
		xt := tx.Table("kv")
		for ops := 1 + rng.Intn(24); ops > 0; ops-- {
			k := pool[rng.Intn(len(pool))]
			ek := string(EncodeKey(Str(k)))
			id, present := want[ek]
			switch rng.Intn(8) {
			case 0, 1: // delete
				if present {
					if !xt.Delete(id) {
						t.Fatalf("delete of row %d failed", id)
					}
					delete(want, ek)
				}
			case 2: // move an existing row to another key: delete, insert
				if !present {
					continue
				}
				k2 := pool[rng.Intn(len(pool))]
				ek2 := string(EncodeKey(Str(k2)))
				_, taken := want[ek2]
				if !xt.Delete(id) {
					t.Fatalf("delete of row %d failed", id)
				}
				delete(want, ek)
				nid, err := xt.Insert(Row{Str(k2), Int(id)})
				switch {
				case taken && ek2 != ek && err == nil:
					t.Fatal("a move onto a held key succeeded")
				case (!taken || ek2 == ek) && err != nil:
					t.Fatalf("a move to a free key failed: %v", err)
				case err == nil:
					want[ek2] = nid
				default: // refused: put the row back under its old key
					if nid, err = xt.Insert(Row{Str(k), Int(id)}); err != nil {
						t.Fatalf("reinsert after a refused move: %v", err)
					}
					want[ek] = nid
				}
			default: // insert
				nid, err := xt.Insert(Row{Str(k), Int(0)})
				if present != (err != nil) {
					t.Fatalf("insert of a key present=%v: err %v", present, err)
				}
				if err == nil {
					want[ek] = nid
				}
			}
		}
		var built *dbVersion
		switch r := rng.Intn(10); {
		case r < 4:
			tx.Commit()
			built = db.current.Load()
			published, head, chain = want, want, nil
			pin(published)
		case r < 6:
			tx.Abort()
			continue
		default:
			s := tx.Precommit()
			built = s.v
			chain = append(chain, staged{s: s, want: want})
			head = want
		}
		if err := kvTree(built).checkInvariants(); err != nil {
			t.Fatalf("epoch %d: %v", built.epoch, err)
		}
	}
	for i, p := range pins {
		checkVersion(t, fmt.Sprintf("pin %d (epoch %d)", i, p.snap.Epoch()), kvTree(p.snap.v), p.want, pool, rng)
	}
}

// versionKeys draws the fuzz target's key pool: short keys, keys long
// enough to need a two-byte length prefix, keys holding 0x00 (escaped
// by the encoding), and families sharing long prefixes.
func versionKeys(rng *rand.Rand) []string {
	var pool []string
	long := bytes.Repeat([]byte("L"), 130)
	for i := 0; i < 260; i++ {
		var k []byte
		switch i % 4 {
		case 0:
			k = []byte(fmt.Sprintf("s%03d", rng.Intn(1000)))
		case 1:
			k = append(slices.Clone(long), fmt.Sprintf("%03d", rng.Intn(1000))...)
		case 2:
			k = []byte{byte(rng.Intn(3)), 0, byte(rng.Intn(256))}
		default:
			k = make([]byte, 1+rng.Intn(200))
			rng.Read(k)
		}
		pool = append(pool, string(k))
	}
	return pool
}

// checkVersion compares one pinned tree with its oracle, which maps the
// encoded column key of each entry to its row ID: invariants, Len, the
// prefix probe of present and absent column keys, and the key set —
// each column key followed by its row ID — over the whole tree and over
// bounds drawn from the oracle's keys, the tree's separators, the key
// pool and their prefix ends.
func checkVersion(t *testing.T, label string, bt *btree, want map[string]int64, pool []string, rng *rand.Rand) {
	t.Helper()
	if err := bt.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if bt.Len() != len(want) {
		t.Fatalf("%s: Len %d, oracle %d", label, bt.Len(), len(want))
	}
	keys := make([]string, 0, len(want))
	for k, id := range want {
		keys = append(keys, string(binary.BigEndian.AppendUint64([]byte(k), uint64(id))))
		if !bt.HasPrefix([]byte(k)) {
			t.Fatalf("%s: no entry under %q", label, k)
		}
	}
	slices.Sort(keys)
	for _, k := range pool {
		ek := EncodeKey(Str(k))
		if _, ok := want[string(ek)]; !ok && bt.HasPrefix(ek) {
			t.Fatalf("%s: an entry under %q, which the version never held", label, ek)
		}
	}
	var seps [][]byte
	var collect func(n *bnode)
	collect = func(n *bnode) {
		if n.leaf {
			return
		}
		for i := range n.offs {
			seps = append(seps, slices.Clone(n.key(i)))
		}
		for _, c := range n.children {
			collect(c)
		}
	}
	collect(bt.root)
	bound := func() []byte {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1, 2:
			if len(seps) > 0 {
				return seps[rng.Intn(len(seps))]
			}
		case 3:
			if len(keys) > 0 {
				return []byte(keys[rng.Intn(len(keys))])
			}
		case 4:
			return prefixEnd(EncodeKey(Str(pool[rng.Intn(len(pool))])))
		}
		return EncodeKey(Str(pool[rng.Intn(len(pool))]))
	}
	for trial := 0; trial < 24; trial++ {
		lo, hi := bound(), bound()
		if trial == 0 {
			lo, hi = nil, nil
		}
		var exp []string
		for _, k := range keys {
			if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
				exp = append(exp, k)
			}
		}
		if got := treeKeys(bt, lo, hi); !slices.Equal(got, exp) {
			t.Fatalf("%s: Ascend [%q, %q) = %d keys, want %d", label, lo, hi, len(got), len(exp))
		}
	}
}
