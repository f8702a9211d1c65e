package xtc

import "container/list"

type lruEntry[K comparable] struct {
	key   K
	frame *Frame
	bytes int64
}

// FrameLRU is the decoded-frame cache: plain LRU under a byte budget, with
// the admission decision left to the caller (a veto asked before each
// eviction) so one type serves both of its sites — the storage-side serve
// fabric, keyed by serve.Key with a heat veto, and the compute-side
// vmd.FrameCache, keyed by frame number with session-memory accounting. It
// lives beside Frame because both sites already import xtc and neither can
// import the other. The zero value with Budget set is ready to use; the
// caller supplies the locking.
type FrameLRU[K comparable] struct {
	Budget int64
	used   int64
	lru    list.List // front = most recent; values *lruEntry[K]
	lookup map[K]*list.Element
}

// Get returns the cached frame and refreshes its recency.
func (c *FrameLRU[K]) Get(k K) (*Frame, bool) {
	e, ok := c.lookup[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*lruEntry[K]).frame, true
}

// Admit inserts the frame if it fits the budget after evicting LRU victims,
// asking evictOK before each eviction. A false answer — the victim is worth
// more than the incoming frame — rejects the insertion instead. Returns
// (admitted, victims evicted); the frame is served to its waiters either
// way, only residency is at stake.
func (c *FrameLRU[K]) Admit(k K, f *Frame, bytes int64, evictOK func(victim K) bool) (bool, int) {
	if bytes > c.Budget {
		return false, 0
	}
	evicted := 0
	for c.used+bytes > c.Budget {
		e := c.lru.Back()
		if e == nil {
			break
		}
		if !evictOK(e.Value.(*lruEntry[K]).key) {
			return false, evicted
		}
		c.EvictOldest()
		evicted++
	}
	if e, ok := c.lookup[k]; ok {
		// A racing decode of the same key already published: keep the
		// resident copy.
		c.lru.MoveToFront(e)
		return true, evicted
	}
	if c.lookup == nil {
		c.lookup = map[K]*list.Element{}
	}
	c.lookup[k] = c.lru.PushFront(&lruEntry[K]{key: k, frame: f, bytes: bytes})
	c.used += bytes
	return true, evicted
}

// EvictOldest drops the least recently used frame and reports its key and
// bytes; ok is false on an empty cache.
func (c *FrameLRU[K]) EvictOldest() (k K, bytes int64, ok bool) {
	e := c.lru.Back()
	if e == nil {
		return k, 0, false
	}
	ent := c.lru.Remove(e).(*lruEntry[K])
	delete(c.lookup, ent.key)
	c.used -= ent.bytes
	return ent.key, ent.bytes, true
}

// Len returns the number of resident frames.
func (c *FrameLRU[K]) Len() int { return c.lru.Len() }

// Used returns the bytes of resident frames.
func (c *FrameLRU[K]) Used() int64 { return c.used }
