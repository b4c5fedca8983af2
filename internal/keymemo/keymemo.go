// Package keymemo is the bounded alias memo from a raw-request pre-key
// (pdce.RequestPreKey) to the canonical cache key (Program.CacheKey)
// that parsing the same request produced. pdce.Pool and pdced each keep
// one, so a byte-identical resubmission finds its cache entry without
// being parsed and re-rendered.
//
// An alias never goes stale: both keys are pure functions of the
// request bytes and the build's cacheKeyVersion. The only policy is
// the bound. Eviction is two-generational: new aliases fill the
// current generation; when it holds half the capacity it becomes the
// old one and the previous old one is dropped whole, and a hit in the
// old generation is copied forward. Recently used aliases so survive
// at O(1) cost per operation and no per-entry bookkeeping, and the
// memo never holds more than its capacity.
package keymemo

import (
	"crypto/sha256"
	"sync"
)

// Memo maps pre-keys to canonical keys. Safe for concurrent use.
type Memo struct {
	mu       sync.Mutex
	half     int
	cur, old map[[sha256.Size]byte]string
}

// New returns a memo holding at most capacity aliases (minimum 2).
func New(capacity int) *Memo {
	half := max(capacity/2, 1)
	return &Memo{half: half, cur: make(map[[sha256.Size]byte]string)}
}

// Get returns the canonical key aliased by pre, if held.
func (m *Memo) Get(pre [sha256.Size]byte) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key, ok := m.cur[pre]; ok {
		return key, true
	}
	key, ok := m.old[pre]
	if ok {
		m.put(pre, key)
	}
	return key, ok
}

// Put records that pre's request parses to the canonical key.
func (m *Memo) Put(pre [sha256.Size]byte, key string) {
	m.mu.Lock()
	m.put(pre, key)
	m.mu.Unlock()
}

func (m *Memo) put(pre [sha256.Size]byte, key string) {
	if _, ok := m.cur[pre]; !ok && len(m.cur) >= m.half {
		m.old, m.cur = m.cur, make(map[[sha256.Size]byte]string, m.half)
	}
	m.cur[pre] = key
}

// Len reports the entries held in both generations. An alias copied
// forward from the old generation counts twice until that generation
// is dropped, so Len never undercounts the memory held.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}
