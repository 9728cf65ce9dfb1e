package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewResultCache(3)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	c.Put("c", []byte("C"))
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Put("d", []byte("D")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if got, want := c.Keys(), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MRU order = %v, want %v", got, want)
	}
	c.Put("e", []byte("E")) // evicts c (a and d are fresher)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c should have been evicted")
	}
	evictions, size := c.Stats()
	if evictions != 2 || size != 3 {
		t.Fatalf("evictions=%d size=%d, want 2 and 3", evictions, size)
	}
}

func TestCachePutExistingRefreshes(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("a", []byte("3")) // refresh, no eviction
	c.Put("c", []byte("4")) // evicts b
	if body, ok := c.Get("a"); !ok || string(body) != "3" {
		t.Fatalf("a = %q, %v; want refreshed body", body, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewResultCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k-%d", (g*500+i)%100)
				c.Put(key, []byte(key))
				if body, ok := c.Get(key); ok && string(body) != key {
					t.Errorf("corrupted body for %s: %q", key, body)
					return
				}
				c.Keys()
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	_, size := c.Stats()
	if size > 64 {
		t.Fatalf("size %d exceeds capacity 64", size)
	}
}
