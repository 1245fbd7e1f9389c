package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// newBtree returns an empty tree at epoch 0. The store itself builds
// every tree bottom-up (bulkKeys.buildTree); tests grow one by inserts.
func newBtree() *btree {
	return &btree{root: &bnode{leaf: true}}
}

func TestBtreeBasicOps(t *testing.T) {
	bt := newBtree()
	if bt.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	bt.Insert([]byte("b"), 2)
	bt.Insert([]byte("a"), 1)
	bt.Insert([]byte("c"), 3)
	if bt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", bt.Len())
	}
	if v, ok := bt.Get([]byte("b")); !ok || v != 2 {
		t.Errorf("Get(b) = %d, %v", v, ok)
	}
	if _, ok := bt.Get([]byte("z")); ok {
		t.Error("Get(z) should miss")
	}
	// Replacement keeps Len stable.
	bt.Insert([]byte("b"), 20)
	if bt.Len() != 3 {
		t.Errorf("Len after replace = %d, want 3", bt.Len())
	}
	if v, _ := bt.Get([]byte("b")); v != 20 {
		t.Errorf("replaced value = %d, want 20", v)
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
	for i := 0; i < 100; i++ {
		bt.Insert([]byte(fmt.Sprintf("k%03d", i)), int64(i))
	}
	var got []int64
	bt.Ascend([]byte("k010"), []byte("k015"), func(_ []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	want := []int64{10, 11, 12, 13, 14}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Ascend range = %v, want %v", got, want)
	}
	// Unbounded scan returns everything in order.
	got = got[:0]
	bt.Ascend(nil, nil, func(_ []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 100 {
		t.Fatalf("full scan returned %d entries", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("scan out of order at %d: %d", i, v)
		}
	}
	// Early stop.
	n := 0
	bt.Ascend(nil, nil, func(_ []byte, _ int64) bool {
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
		bt.Insert([]byte(fmt.Sprintf("a%d", i)), int64(i))
		bt.Insert([]byte(fmt.Sprintf("b%d", i)), int64(100+i))
	}
	var got []int64
	bt.AscendPrefix([]byte("b"), func(_ []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Errorf("AscendPrefix(b) = %v", got)
	}
}

// TestBtreeAgainstReference drives random operations against a Go map +
// sorted-slice reference model and checks full agreement plus structural
// invariants.
func TestBtreeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bt := newBtree()
	ref := make(map[string]int64)
	for op := 0; op < 20000; op++ {
		key := []byte(fmt.Sprintf("key-%05d", rng.Intn(5000)))
		switch rng.Intn(10) {
		case 0, 1, 2:
			delete(ref, string(key))
			bt.Delete(key)
		default:
			v := rng.Int63()
			ref[string(key)] = v
			bt.Insert(key, v)
		}
	}
	if bt.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", bt.Len(), len(ref))
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// All reference entries retrievable.
	for k, v := range ref {
		got, ok := bt.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("Get(%s) = %d,%v want %d", k, got, ok, v)
		}
	}
	// Full scan equals sorted reference.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	bt.Ascend(nil, nil, func(k []byte, v int64) bool {
		if i >= len(keys) || string(k) != keys[i] || v != ref[keys[i]] {
			t.Fatalf("scan mismatch at %d: got %s", i, k)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("scan visited %d of %d", i, len(keys))
	}
}

// TestBtreeRandomRangesAgainstReference compares arbitrary [lo,hi) scans
// with the reference after heavy mixed operations.
func TestBtreeRandomRangesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bt := newBtree()
	ref := make(map[string]int64)
	for op := 0; op < 5000; op++ {
		key := []byte(fmt.Sprintf("%04d", rng.Intn(2000)))
		if rng.Intn(4) == 0 {
			delete(ref, string(key))
			bt.Delete(key)
		} else {
			ref[string(key)] = int64(op)
			bt.Insert(key, int64(op))
		}
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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
		var got []string
		bt.Ascend(lo, hi, func(k []byte, _ int64) bool {
			got = append(got, string(k))
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("range [%s,%s): got %v want %v", lo, hi, got, want)
		}
	}
}

func TestBtreeSequentialAndReverseInsertion(t *testing.T) {
	for _, dir := range []string{"asc", "desc"} {
		bt := newBtree()
		for i := 0; i < 3000; i++ {
			k := i
			if dir == "desc" {
				k = 2999 - i
			}
			bt.Insert([]byte(fmt.Sprintf("%06d", k)), int64(k))
		}
		if err := bt.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if bt.Len() != 3000 {
			t.Fatalf("%s: Len = %d", dir, bt.Len())
		}
		prev := int64(-1)
		bt.Ascend(nil, nil, func(_ []byte, v int64) bool {
			if v != prev+1 {
				t.Fatalf("%s: sequence broken at %d", dir, v)
			}
			prev = v
			return true
		})
	}
}

// TestBtreeDrainMaintainsBalance deletes every key from a large tree,
// checking the occupancy/ordering invariants as the tree shrinks and
// that the root collapses back to a leaf.
func TestBtreeDrainMaintainsBalance(t *testing.T) {
	bt := newBtree()
	const n = 5000
	for i := 0; i < n; i++ {
		bt.Insert([]byte(fmt.Sprintf("%06d", i)), int64(i))
	}
	rng := rand.New(rand.NewSource(3))
	order := rng.Perm(n)
	for step, k := range order {
		if !bt.Delete([]byte(fmt.Sprintf("%06d", k))) {
			t.Fatalf("delete %d failed", k)
		}
		if step%500 == 0 {
			if err := bt.checkInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", step+1, err)
			}
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d after drain", bt.Len())
	}
	if !bt.root.leaf {
		t.Error("root should collapse to a leaf")
	}
	bt.Ascend(nil, nil, func(k []byte, _ int64) bool {
		t.Fatalf("drained tree still holds %q", k)
		return false
	})
	// The tree remains usable.
	bt.Insert([]byte("again"), 1)
	if v, ok := bt.Get([]byte("again")); !ok || v != 1 {
		t.Error("tree unusable after drain")
	}
}

// TestBtreeChurnKeepsLeafChainIntact interleaves inserts and deletes and
// verifies range scans see exactly the live keys (the leaf chain must
// survive merges).
func TestBtreeChurnKeepsLeafChainIntact(t *testing.T) {
	bt := newBtree()
	ref := map[string]int64{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 30000; op++ {
		k := fmt.Sprintf("%05d", rng.Intn(3000))
		if rng.Intn(3) == 0 {
			delete(ref, k)
			bt.Delete([]byte(k))
		} else {
			ref[k] = int64(op)
			bt.Insert([]byte(k), int64(op))
		}
		if op%5000 == 4999 {
			if err := bt.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	var got []string
	bt.Ascend(nil, nil, func(k []byte, v int64) bool {
		got = append(got, string(k))
		if ref[string(k)] != v {
			t.Fatalf("value mismatch at %s", k)
		}
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("scan saw %d keys, reference has %d", len(got), len(ref))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("scan out of order after churn")
		}
	}
}
