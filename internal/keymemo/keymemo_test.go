package keymemo

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

func pre(i int) [sha256.Size]byte { return sha256.Sum256([]byte(fmt.Sprint(i))) }

// The memo never holds more than its capacity, returns exactly what
// was put, and keeps a recently used alias across a generation flip.
func TestMemoBoundAndRecency(t *testing.T) {
	m := New(8)
	for i := 0; i < 100; i++ {
		m.Put(pre(i), fmt.Sprint("key-", i))
		if n := m.Len(); n > 8 {
			t.Fatalf("after %d puts the memo holds %d aliases, bound 8", i+1, n)
		}
		// Touching alias 0 before each flip keeps it alive.
		if key, ok := m.Get(pre(0)); !ok || key != "key-0" {
			t.Fatalf("after %d puts: alias 0 = %q, %v; want key-0 kept by use", i+1, key, ok)
		}
	}
	for i := 1; i < 90; i++ {
		if _, ok := m.Get(pre(i)); ok {
			t.Errorf("stale alias %d survived 100 puts into an 8-entry memo", i)
		}
	}
	if key, ok := m.Get(pre(99)); !ok || key != "key-99" {
		t.Errorf("newest alias = %q, %v; want key-99", key, ok)
	}
}

func TestMemoConcurrent(t *testing.T) {
	m := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 200
				if key, ok := m.Get(pre(k)); ok && key != fmt.Sprint(k) {
					t.Errorf("alias %d = %q", k, key)
					return
				}
				m.Put(pre(k), fmt.Sprint(k))
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > 64 {
		t.Errorf("memo holds %d aliases, bound 64", n)
	}
}
