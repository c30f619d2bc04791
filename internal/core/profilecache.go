package core

import (
	"container/list"
	"sync"
	"time"

	"harmony/internal/schema"
)

// DefaultProfileCacheSize is the default capacity of a ProfileCache in
// compiled profiles (not bytes): sized for a working set of a few
// hundred corpus schemas while keeping worst-case memory modest.
const DefaultProfileCacheSize = 128

// ProfileCache is a fingerprint-keyed LRU cache of compiled schema
// profiles, shared by every engine (dense, sparse, corpus, evolve) that
// serves the same registry. Entries are immutable CompiledProfiles, so
// a cached profile can be handed to any number of concurrent matches.
// The cache holds per-schema state only: every match still pairs its two
// profiles (PairProfiles) and scores them through the one scoring path,
// whose per-worker shape memo (pairScratch) carries name-similarity
// values across matches and schema pairs.
//
// The cache sits next to the service layer's match-result cache in the
// invalidation path: when schema evolution retires a fingerprint, both
// caches drop it in the same sweep, so a PUT /v1/schemas rematch always
// recompiles against current content.
//
// The cache lives in memory only and only matches fill it: a profile is
// derived from schema content alone, so after a restart each schema
// compiles again the first time a match touches it.
type ProfileCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, evictions, invalidations uint64
}

type profileCacheEntry struct {
	fp string
	p  *CompiledProfile
}

// NewProfileCache returns a cache holding up to capacity compiled
// profiles (DefaultProfileCacheSize when capacity <= 0).
func NewProfileCache(capacity int) *ProfileCache {
	if capacity <= 0 {
		capacity = DefaultProfileCacheSize
	}
	return &ProfileCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Profile returns the compiled profile for s, compiling on miss. The
// compile runs outside the lock — two concurrent misses on the same
// fingerprint may both compile, and the loser's (identical) result is
// discarded; profiles are content-addressed so this is only duplicated
// work, never inconsistency.
func (c *ProfileCache) Profile(s *schema.Schema) *CompiledProfile {
	fp := s.Fingerprint()
	if p, ok := c.lookup(fp); ok {
		return p
	}
	profileCacheMiss.Inc()
	t0 := time.Now()
	p := CompileSchema(s)
	phaseCompile.Observe(time.Since(t0).Seconds())
	c.add(fp, p)
	return p
}

// Get returns the cached profile for a fingerprint without compiling.
func (c *ProfileCache) Get(fp string) (*CompiledProfile, bool) {
	if p, ok := c.lookup(fp); ok {
		return p, true
	}
	profileCacheMiss.Inc()
	return nil, false
}

func (c *ProfileCache) lookup(fp string) (*CompiledProfile, bool) {
	c.mu.Lock()
	el, ok := c.items[fp]
	if ok {
		c.ll.MoveToFront(el)
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	profileCacheHit.Inc()
	return el.Value.(*profileCacheEntry).p, true
}

func (c *ProfileCache) add(fp string, p *CompiledProfile) {
	c.mu.Lock()
	if el, ok := c.items[fp]; ok {
		// Lost a compile race; keep the incumbent (identical content).
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.items[fp] = c.ll.PushFront(&profileCacheEntry{fp: fp, p: p})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		ent := back.Value.(*profileCacheEntry)
		c.ll.Remove(back)
		delete(c.items, ent.fp)
		c.evictions++
		profileCacheEvict.Inc()
	}
	c.mu.Unlock()
}

// InvalidateFingerprint drops the profile compiled from the given
// schema content, reporting whether an entry existed. Called from the
// schema-evolution path alongside the match-cache sweep.
func (c *ProfileCache) InvalidateFingerprint(fp string) bool {
	c.mu.Lock()
	el, ok := c.items[fp]
	if ok {
		c.ll.Remove(el)
		delete(c.items, fp)
		c.invalidations++
	}
	c.mu.Unlock()
	if ok {
		profileCacheInvalidate.Inc()
	}
	return ok
}

// Len returns the number of cached profiles.
func (c *ProfileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// ProfileCacheStats is a point-in-time snapshot of cache effectiveness,
// exposed on the service stats endpoint.
type ProfileCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Size          int    `json:"size"`
	Capacity      int    `json:"capacity"`
}

// Stats returns a snapshot of the cache counters.
func (c *ProfileCache) Stats() ProfileCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ProfileCacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Size:          c.ll.Len(),
		Capacity:      c.capacity,
	}
}
