// Content-addressed result cache. Completed inference results are stored
// under the stable hash of their job content (see hash.go), so resubmitting
// an identical workload is answered from memory — byte-identical to the
// cold run — in microseconds instead of re-executing the campaign. Bounded
// by an LRU policy: the cache holds at most cap entries and evicts the
// least recently touched one on overflow.
package server

import (
	"container/list"
	"sync"
)

// ResultCache is a bounded, concurrency-safe LRU map from content hash to
// the serialized result body.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry

	evictions uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewResultCache returns an empty cache holding at most capacity entries.
// capacity must be positive (Config.Validate enforces it upstream).
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached body for key, marking it most recently used. The
// returned slice is shared — callers must not mutate it.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key, evicting the least recently used entry if the
// cache is full. Storing an existing key refreshes its body and recency.
func (c *ResultCache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
}

// Stats returns the cumulative eviction count and the current size.
func (c *ResultCache) Stats() (evictions uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions, c.ll.Len()
}

// Keys returns the cached keys from most to least recently used (test and
// introspection helper).
func (c *ResultCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}
