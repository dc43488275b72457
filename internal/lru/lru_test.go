package lru

import (
	"fmt"
	"strings"
	"testing"
)

// resident lists the cache's entries most recently used first, as
// "key:len".
func resident(c *Cache[string]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for e := c.root.next; e != c.root; e = e.next {
		out = append(out, fmt.Sprintf("%s:%d", e.key, len(e.val)))
	}
	return out
}

func TestCache(t *testing.T) {
	type op func(c *Cache[string])
	add := func(k string, n int) op { return func(c *Cache[string]) { c.Add(k, make([]byte, n)) } }
	get := func(k string) op { return func(c *Cache[string]) { c.Get(k) } }
	dropPrefix := func(p string) op {
		return func(c *Cache[string]) { c.RemoveIf(func(k string) bool { return strings.HasPrefix(k, p) }) }
	}
	cases := []struct {
		name     string
		capBytes int64
		ops      []op
		want     []string // resident entries, most recently used first
		stats    Stats
	}{
		{
			name:     "capacity 0 stores nothing but counts misses",
			capBytes: 0,
			ops:      []op{add("a", 1), add("b", 0), get("a"), get("b")},
			stats:    Stats{Misses: 2},
		},
		{
			name:     "negative capacity stores nothing",
			capBytes: -1,
			ops:      []op{add("a", 1), get("a")},
			stats:    Stats{Misses: 1},
		},
		{
			name:     "oversize add leaves resident entries alone",
			capBytes: 100,
			ops:      []op{add("a", 50), add("b", 200), get("a"), get("b")},
			want:     []string{"a:50"},
			stats:    Stats{Bytes: 50, Entries: 1, Hits: 1, Misses: 1},
		},
		{
			name:     "oversize replace keeps the old value",
			capBytes: 100,
			ops:      []op{add("a", 40), add("a", 101)},
			want:     []string{"a:40"},
			stats:    Stats{Bytes: 40, Entries: 1},
		},
		{
			name:     "exact fit does not evict",
			capBytes: 100,
			ops:      []op{add("a", 60), add("b", 40)},
			want:     []string{"b:40", "a:60"},
			stats:    Stats{Bytes: 100, Entries: 2},
		},
		{
			name:     "eviction takes the least recently used",
			capBytes: 100,
			ops:      []op{add("a", 60), add("b", 40), add("c", 1)},
			want:     []string{"c:1", "b:40"},
			stats:    Stats{Bytes: 41, Entries: 2, Evictions: 1},
		},
		{
			name:     "hit moves to front",
			capBytes: 100,
			ops:      []op{add("a", 40), add("b", 40), get("a"), add("c", 40)},
			want:     []string{"c:40", "a:40"},
			stats:    Stats{Bytes: 80, Entries: 2, Hits: 1, Evictions: 1},
		},
		{
			name:     "one add evicts several",
			capBytes: 100,
			ops:      []op{add("a", 30), add("b", 30), add("c", 30), add("d", 90)},
			want:     []string{"d:90"},
			stats:    Stats{Bytes: 90, Entries: 1, Evictions: 3},
		},
		{
			name:     "replace that grows past capacity evicts others",
			capBytes: 100,
			ops:      []op{add("a", 40), add("b", 40), add("a", 70), get("b")},
			want:     []string{"a:70"},
			stats:    Stats{Bytes: 70, Entries: 1, Misses: 1, Evictions: 1},
		},
		{
			name:     "replace that shrinks adjusts the size",
			capBytes: 100,
			ops:      []op{add("a", 60), add("b", 10), add("a", 5)},
			want:     []string{"a:5", "b:10"},
			stats:    Stats{Bytes: 15, Entries: 2},
		},
		{
			name:     "RemoveIf drops matches without counting evictions",
			capBytes: 100,
			ops: []op{add("x/1", 10), add("y", 30), add("x/2", 20), dropPrefix("x/"),
				get("x/1"), get("y")},
			want:  []string{"y:30"},
			stats: Stats{Bytes: 30, Entries: 1, Hits: 1, Misses: 1},
		},
		{
			name:     "RemoveIf frees room for later adds",
			capBytes: 100,
			ops:      []op{add("x", 60), add("y", 40), dropPrefix("x"), add("z", 60)},
			want:     []string{"z:60", "y:40"},
			stats:    Stats{Bytes: 100, Entries: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](tc.capBytes)
			for _, o := range tc.ops {
				o(c)
			}
			if got := resident(c); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("resident %v, want %v", got, tc.want)
			}
			if got := c.Stats(); got != tc.stats {
				t.Errorf("stats %+v, want %+v", got, tc.stats)
			}
		})
	}
}

// TestGetReturnsStoredSlice pins the by-reference contract: a hit hands
// back the very slice that was added, with no copy.
func TestGetReturnsStoredSlice(t *testing.T) {
	c := New[int](16)
	v := []byte("fragment")
	c.Add(1, v)
	got, ok := c.Get(1)
	if !ok || &got[0] != &v[0] {
		t.Fatalf("Get returned %q (ok=%v), not the stored slice", got, ok)
	}
}

// benchKey mirrors the client's fragment key: dataset, variable, index.
type benchKey struct {
	dataset, vr string
	fi          int
}

func BenchmarkLRUGetHit(b *testing.B) {
	const n = 1024
	c := New[benchKey](n * 64)
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		c.Add(benchKey{"ge", "VelocityX", i}, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(benchKey{"ge", "VelocityX", i % n}); !ok {
			b.Fatal("miss on a resident key")
		}
	}
}

func BenchmarkLRUAddEvict(b *testing.B) {
	const n = 1024
	c := New[benchKey](n * 64)
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		c.Add(benchKey{"ge", "VelocityX", i}, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Every add is a new key into a full cache, so each one evicts.
	for i := 0; i < b.N; i++ {
		c.Add(benchKey{"ge", "VelocityX", n + i}, val)
	}
}
