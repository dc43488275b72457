// Package lru is the repository's one byte-bounded LRU: the client's
// fragment cache, the server's hot-fragment cache and the object store's
// read-through cache are all a Cache keyed by their own comparable struct.
//
// Values are []byte held by reference and bounded by their length. Every
// user caches immutable bytes (fragments, ETag-pinned object reads), so a
// hit costs no copy; a caller that caches a subslice of a larger buffer
// must clone it first, or the bound stops describing real memory.
package lru

import "sync"

// Cache is a byte-bounded LRU, safe for concurrent use. A Cache with
// capacity ≤ 0 stores nothing but still counts misses, which degrades
// every lookup to a fetch while keeping the caller correct.
type Cache[K comparable] struct {
	mu        sync.Mutex
	capBytes  int64           // immutable after construction
	size      int64           // guarded by mu
	root      *entry[K]       // guarded by mu; ring sentinel, root.next = most recently used
	items     map[K]*entry[K] // guarded by mu
	hits      int64           // guarded by mu
	misses    int64           // guarded by mu
	evictions int64           // guarded by mu
}

// entry is one resident value, linked into the cache's recency ring.
type entry[K comparable] struct {
	key        K
	val        []byte
	prev, next *entry[K]
}

func (e *entry[K]) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (e *entry[K]) linkAfter(at *entry[K]) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}

// Stats is one consistent snapshot of the cache counters.
type Stats struct {
	Bytes     int64
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// New returns a cache bounded to capBytes bytes of values.
func New[K comparable](capBytes int64) *Cache[K] {
	root := &entry[K]{}
	root.prev, root.next = root, root
	return &Cache[K]{capBytes: capBytes, root: root, items: map[K]*entry[K]{}}
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K]) Get(key K) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	e.unlink()
	e.linkAfter(c.root)
	return e.val, true
}

// Add stores val under key as the most recently used entry, replacing
// any previous value, then evicts from the least recently used end until
// the cache fits its capacity. A value larger than the whole capacity is
// not stored, and the resident entries are left alone.
func (c *Cache[K]) Add(key K, val []byte) {
	if c.capBytes <= 0 || int64(len(val)) > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.size += int64(len(val)) - int64(len(e.val))
		e.val = val
		e.unlink()
		e.linkAfter(c.root)
	} else {
		e := &entry[K]{key: key, val: val}
		e.linkAfter(c.root)
		c.items[key] = e
		c.size += int64(len(val))
	}
	for c.size > c.capBytes {
		e := c.root.prev
		e.unlink()
		delete(c.items, e.key)
		c.size -= int64(len(e.val))
		c.evictions++
	}
}

// RemoveIf drops every entry whose key matches. Removals are
// invalidations, not evictions, and are not counted.
func (c *Cache[K]) RemoveIf(match func(K) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.items {
		if match(k) {
			e.unlink()
			delete(c.items, k)
			c.size -= int64(len(e.val))
		}
	}
}

// Stats snapshots the counters under one lock acquisition.
func (c *Cache[K]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Bytes: c.size, Entries: len(c.items), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
