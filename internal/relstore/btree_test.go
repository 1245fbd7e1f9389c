package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// newBtree returns an empty tree at epoch 0. The store itself builds
// every tree bottom-up (bulkKeys.buildTree); tests grow one by inserts.
func newBtree() *btree {
	return &btree{root: &bnode{leaf: true}}
}

// treeKeys returns the keys of bt with lo <= key < hi, in scan order.
func treeKeys(bt *btree, lo, hi []byte) []string {
	var out []string
	bt.Ascend(lo, hi, func(k []byte) bool {
		out = append(out, string(k))
		return true
	})
	return out
}

// treeHas reports whether bt holds key.
func treeHas(bt *btree, key []byte) bool {
	found := false
	bt.Ascend(key, nil, func(k []byte) bool {
		found = bytes.Equal(k, key)
		return false
	})
	return found
}

// sortedSet returns the members of set in ascending order.
func sortedSet(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestBtreeBasicOps(t *testing.T) {
	bt := newBtree()
	if bt.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	for _, k := range []string{"b", "a", "c"} {
		bt.Insert([]byte(k))
	}
	if bt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", bt.Len())
	}
	if !treeHas(bt, []byte("b")) {
		t.Error("b missing")
	}
	if treeHas(bt, []byte("z")) {
		t.Error("z should miss")
	}
	if got := treeKeys(bt, nil, nil); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("keys = %q", got)
	}
	if !bt.Delete([]byte("a")) {
		t.Error("Delete(a) should succeed")
	}
	if bt.Delete([]byte("a")) {
		t.Error("second Delete(a) should fail")
	}
	if bt.Len() != 2 {
		t.Errorf("Len after delete = %d, want 2", bt.Len())
	}
}

func TestBtreeAscendRange(t *testing.T) {
	bt := newBtree()
	var all []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		bt.Insert([]byte(k))
		all = append(all, k)
	}
	if got := treeKeys(bt, []byte("k010"), []byte("k015")); !slices.Equal(got, all[10:15]) {
		t.Errorf("Ascend range = %v, want %v", got, all[10:15])
	}
	// Unbounded scan returns everything in order.
	if got := treeKeys(bt, nil, nil); !slices.Equal(got, all) {
		t.Fatalf("full scan returned %d keys out of order or incomplete", len(got))
	}
	// Early stop.
	n := 0
	bt.Ascend(nil, nil, func([]byte) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d, want 7", n)
	}
}

func TestBtreeAscendPrefix(t *testing.T) {
	bt := newBtree()
	for i := 0; i < 10; i++ {
		bt.Insert([]byte(fmt.Sprintf("a%d", i)))
		bt.Insert([]byte(fmt.Sprintf("b%d", i)))
	}
	var got []string
	bt.AscendPrefix([]byte("b"), func(k []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != "b0" || got[9] != "b9" {
		t.Errorf("AscendPrefix(b) = %v", got)
	}
	if !bt.HasPrefix([]byte("a")) || bt.HasPrefix([]byte("c")) || bt.HasPrefix([]byte("a0x")) {
		t.Error("HasPrefix disagrees with the keys held")
	}
}

// TestBtreeAgainstReference drives random inserts and deletes against a
// set reference model and checks full agreement plus structural
// invariants.
func TestBtreeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bt := newBtree()
	ref := make(map[string]bool)
	for op := 0; op < 20000; op++ {
		key := []byte(fmt.Sprintf("key-%05d", rng.Intn(5000)))
		held := ref[string(key)]
		switch rng.Intn(10) {
		case 0, 1, 2:
			delete(ref, string(key))
			if bt.Delete(key) != held {
				t.Fatalf("Delete(%s) disagrees with the reference (held %v)", key, held)
			}
		default:
			if !held {
				ref[string(key)] = true
				bt.Insert(key)
			}
		}
	}
	if bt.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", bt.Len(), len(ref))
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := range ref {
		if !treeHas(bt, []byte(k)) {
			t.Fatalf("%s missing", k)
		}
	}
	if got, want := treeKeys(bt, nil, nil), sortedSet(ref); !slices.Equal(got, want) {
		t.Fatalf("full scan of %d keys differs from the reference's %d", len(got), len(want))
	}
}

// TestBtreeRandomRangesAgainstReference compares arbitrary [lo,hi) scans
// with the reference after heavy mixed operations.
func TestBtreeRandomRangesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bt := newBtree()
	ref := make(map[string]bool)
	for op := 0; op < 5000; op++ {
		key := []byte(fmt.Sprintf("%04d", rng.Intn(2000)))
		if rng.Intn(4) == 0 {
			delete(ref, string(key))
			bt.Delete(key)
		} else if !ref[string(key)] {
			ref[string(key)] = true
			bt.Insert(key)
		}
	}
	keys := sortedSet(ref)
	for trial := 0; trial < 200; trial++ {
		lo := []byte(fmt.Sprintf("%04d", rng.Intn(2000)))
		hi := []byte(fmt.Sprintf("%04d", rng.Intn(2000)))
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		var want []string
		for _, k := range keys {
			if k >= string(lo) && k < string(hi) {
				want = append(want, k)
			}
		}
		if got := treeKeys(bt, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("range [%s,%s): got %v want %v", lo, hi, got, want)
		}
	}
}

func TestBtreeSequentialAndReverseInsertion(t *testing.T) {
	for _, dir := range []string{"asc", "desc"} {
		bt := newBtree()
		want := make([]string, 3000)
		for i := range want {
			want[i] = fmt.Sprintf("%06d", i)
			k := i
			if dir == "desc" {
				k = 2999 - i
			}
			bt.Insert([]byte(fmt.Sprintf("%06d", k)))
		}
		if err := bt.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if bt.Len() != 3000 {
			t.Fatalf("%s: Len = %d", dir, bt.Len())
		}
		if got := treeKeys(bt, nil, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: scan is not the 3000 keys in order", dir)
		}
	}
}

// TestBtreeDrainMaintainsBalance deletes keys from a tree three levels
// deep — every key in key order, every key in random order, and 90% of
// them at random before reinserting them — and runs checkInvariants
// after every delete: key order and separator bounds, uniform leaf
// depth, no empty non-root node, an internal root of two children or
// more, and Len. A drained tree must be one empty leaf that still takes
// inserts; a churned one must hold exactly its keys.
func TestBtreeDrainMaintainsBalance(t *testing.T) {
	const n = 3000
	key := func(i int) []byte { return []byte(fmt.Sprintf("%06d", i)) }
	grow := func(t *testing.T) *btree {
		bt := newBtree()
		for i := 0; i < n; i++ {
			bt.Insert(key(i))
		}
		if bt.root.leaf || bt.root.children[0].leaf {
			t.Fatal("fixture should be three levels deep")
		}
		return bt
	}
	rng := rand.New(rand.NewSource(3))
	remove := func(t *testing.T, bt *btree, order []int) {
		for step, k := range order {
			if !bt.Delete(key(k)) {
				t.Fatalf("delete %d failed", k)
			}
			if err := bt.checkInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", step+1, err)
			}
			if treeHas(bt, key(k)) {
				t.Fatalf("deleted key %d still held", k)
			}
		}
	}
	inOrder := make([]int, n)
	for i := range inOrder {
		inOrder[i] = i
	}
	for label, order := range map[string][]int{"key order": inOrder, "random order": rng.Perm(n)} {
		t.Run(label, func(t *testing.T) {
			bt := grow(t)
			remove(t, bt, order)
			if bt.Len() != 0 || !bt.root.leaf || len(bt.root.offs) != 0 {
				t.Fatalf("drained tree: Len %d, root leaf %v with %d keys; want one empty leaf", bt.Len(), bt.root.leaf, len(bt.root.offs))
			}
			if got := treeKeys(bt, nil, nil); len(got) != 0 {
				t.Fatalf("drained tree still holds %q", got)
			}
			// The tree remains usable.
			bt.Insert([]byte("again"))
			if !treeHas(bt, []byte("again")) || bt.Len() != 1 {
				t.Error("tree unusable after drain")
			}
		})
	}
	t.Run("churn", func(t *testing.T) {
		bt := grow(t)
		order := rng.Perm(n)[:n*9/10]
		remove(t, bt, order)
		for _, k := range order {
			bt.Insert(key(k))
		}
		if err := bt.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		want := make([]string, n)
		for i := range want {
			want[i] = string(key(i))
		}
		if got := treeKeys(bt, nil, nil); !slices.Equal(got, want) {
			t.Fatalf("after churn the tree holds %d keys, want all %d in order", len(got), n)
		}
	})
}

// TestBtreeChurnKeepsLeafChainIntact interleaves inserts and deletes and
// verifies range scans see exactly the live keys, in order, as
// deletions unlink emptied nodes.
func TestBtreeChurnKeepsLeafChainIntact(t *testing.T) {
	bt := newBtree()
	ref := map[string]bool{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 30000; op++ {
		k := fmt.Sprintf("%05d", rng.Intn(3000))
		if rng.Intn(3) == 0 {
			delete(ref, k)
			bt.Delete([]byte(k))
		} else if !ref[k] {
			ref[k] = true
			bt.Insert([]byte(k))
		}
		if op%5000 == 4999 {
			if err := bt.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if got, want := treeKeys(bt, nil, nil), sortedSet(ref); !slices.Equal(got, want) {
		t.Fatalf("scan saw %d keys, reference has %d", len(got), len(want))
	}
}
