package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPutAndGenerationInvalidation(t *testing.T) {
	c := New[string, int](64, StringHash)
	if _, ok := c.Get(1, "a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(1, "a", 10)
	if v, ok := c.Get(1, "a"); !ok || v != 10 {
		t.Fatalf("Get = %d,%v want 10,true", v, ok)
	}
	// A different generation must miss and drop the entry.
	if _, ok := c.Get(2, "a"); ok {
		t.Fatal("stale entry served across generations")
	}
	st := c.Stats()
	if st.Stale != 1 {
		t.Errorf("stale = %d, want 1", st.Stale)
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", st.Hits, st.Misses)
	}
	if c.Len() != 0 {
		t.Errorf("len = %d after stale drop, want 0", c.Len())
	}
}

// TestGetValidRestampsOrDrops: on a generation mismatch the check
// decides. A passing entry is served and restamped, so the next lookup
// at that generation runs no check; a failing one is dropped as stale.
func TestGetValidRestampsOrDrops(t *testing.T) {
	c := New[string, int](64, StringHash)
	c.Put(1, "a", 10)
	c.Put(1, "b", 20)
	checks := 0
	current := func(k string, v int) bool {
		checks++
		return k == "a" && v == 10
	}
	if v, ok := c.GetValid(1, "a", current); !ok || v != 10 || checks != 0 {
		t.Fatalf("same generation: %d,%v after %d checks, want 10,true after none", v, ok, checks)
	}
	if v, ok := c.GetValid(2, "a", current); !ok || v != 10 || checks != 1 {
		t.Fatalf("valid entry at a new generation: %d,%v after %d checks", v, ok, checks)
	}
	if v, ok := c.Get(2, "a"); !ok || v != 10 {
		t.Fatalf("the restamped entry missed a plain Get at its new generation: %d,%v", v, ok)
	}
	if _, ok := c.GetValid(2, "b", current); ok {
		t.Fatal("an entry its check rejects was served")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 after the rejected entry was dropped", c.Len())
	}
	if st := c.Stats(); st.Hits != 3 || st.Stale != 1 || st.Misses != 1 {
		t.Fatalf("hits/stale/misses = %d/%d/%d, want 3/1/1", st.Hits, st.Stale, st.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 8 collapses to a single shard of 8.
	c := New[string, int](8, StringHash)
	if len(c.shards) != 1 {
		t.Fatalf("shards = %d, want 1 for capacity 8", len(c.shards))
	}
	for i := 0; i < 8; i++ {
		c.Put(1, fmt.Sprintf("k%d", i), i)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get(1, "k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put(1, "k8", 8)
	if _, ok := c.Get(1, "k1"); ok {
		t.Fatal("LRU victim k1 survived")
	}
	if _, ok := c.Get(1, "k0"); !ok {
		t.Fatal("recently used k0 evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if c.Len() != 8 {
		t.Errorf("len = %d, want 8", c.Len())
	}
}

func TestPutOverwritesAndRestamps(t *testing.T) {
	c := New[string, int](16, StringHash)
	c.Put(1, "a", 1)
	c.Put(2, "a", 2)
	if v, ok := c.Get(2, "a"); !ok || v != 2 {
		t.Fatalf("Get = %d,%v want 2,true", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New[string, int](64, StringHash)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := c.GetOrCompute(1, "k", func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 2 {
		t.Errorf("loader ran %d times, want 2 (errors are not cached)", calls)
	}
	if c.Len() != 0 {
		t.Errorf("len = %d after errors, want 0", c.Len())
	}
	// A successful load is stored: the next call at the same generation
	// is a hit and does not run the loader.
	for i := 0; i < 2; i++ {
		v, err := c.GetOrCompute(1, "k", func() (int, error) {
			calls++
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Fatalf("GetOrCompute = %d,%v want 42,nil", v, err)
		}
	}
	if calls != 3 {
		t.Errorf("loader ran %d times, want 3 (a success is cached)", calls)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache[string, int]
	if _, ok := c.Get(1, "a"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(1, "a", 1)
	v, err := c.GetOrCompute(1, "a", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("nil GetOrCompute = %d,%v want 7,nil", v, err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil stats = %+v, want zero", st)
	}
	if New[string, int](0, StringHash) != nil {
		t.Fatal("capacity 0 should build a nil (disabled) cache")
	}
}

// TestConcurrentMixedUse hammers one cache from many goroutines across
// generations; run under -race this validates the locking discipline.
func TestConcurrentMixedUse(t *testing.T) {
	c := New[int64, int64](256, Int64Hash)
	var gen atomic.Uint64
	gen.Store(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				g := gen.Load()
				key := int64(i % 97)
				switch i % 4 {
				case 0:
					c.Put(g, key, key*2)
				case 1:
					if v, ok := c.Get(g, key); ok && v != key*2 {
						t.Errorf("Get(%d) = %d, want %d", key, v, key*2)
						return
					}
				case 2:
					v, err := c.GetOrCompute(g, key, func() (int64, error) { return key * 2, nil })
					if err != nil || v != key*2 {
						t.Errorf("GetOrCompute(%d) = %d,%v", key, v, err)
						return
					}
				case 3:
					if w == 0 && i%251 == 0 {
						gen.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}
