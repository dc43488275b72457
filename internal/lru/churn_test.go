package lru

// churn_test.go hammers the LRU with concurrent readers and writers
// whose working set exceeds capacity, so gets, adds, re-inserts of
// just-evicted keys, and evictions interleave constantly.
// Run under -race this proves the lock discipline; the post-hammer checks
// prove the byte accounting survives the churn.

import (
	"fmt"
	"sync"
	"testing"
)

func TestConcurrentChurn(t *testing.T) {
	const (
		workers = 8
		rounds  = 400
		keys    = 64
		valSize = 512
	)
	// Capacity holds only a quarter of the key space: every worker's pass
	// keeps evicting what the others just inserted.
	c := New[string](int64(keys / 4 * valSize))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, valSize)
			for r := 0; r < rounds; r++ {
				// Walk the key space with a per-worker stride so the access
				// orders differ and LRU positions keep shuffling.
				k := fmt.Sprintf("k%d", (r*(w+1))%keys)
				if v, ok := c.Get(k); ok {
					if len(v) != valSize {
						t.Errorf("got %d-byte value for %s, want %d", len(v), k, valSize)
						return
					}
				} else {
					c.Add(k, val)
				}
				if r%16 == w {
					c.Stats() // concurrent snapshots must not tear
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > int64(keys/4*valSize) {
		t.Fatalf("cache holds %d bytes, capacity %d", st.Bytes, keys/4*valSize)
	}
	if st.Bytes != int64(st.Entries*valSize) {
		t.Fatalf("size accounting drifted: %d bytes for %d entries of %d", st.Bytes, st.Entries, valSize)
	}
	if st.Entries > keys/4 {
		t.Fatalf("%d entries exceed the %d that fit", st.Entries, keys/4)
	}
	// Every add either grew the cache or (beyond capacity) evicted; the
	// counters must account for all of them: inserts = misses that led to
	// an add = evictions + resident entries.
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("churn produced no misses (%d) or no evictions (%d)", st.Misses, st.Evictions)
	}
	// Stats() calls don't touch hit/miss; each loop iteration does exactly
	// one get, so the counters must add up to the total get count.
	if st.Hits+st.Misses != int64(workers*rounds) {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, workers*rounds)
	}
}
