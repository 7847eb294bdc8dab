// Package objectstore implements the per-node immutable object store —
// Skadi's analogue of Ray's plasma. Each node (server DRAM, device HBM)
// holds one store; objects are byte blobs with a format tag, reference
// pins keep in-use objects resident, and an LRU policy evicts unpinned
// objects under memory pressure, optionally spilling them to a lower tier
// (disaggregated memory) instead of dropping them.
package objectstore

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"skadi/internal/idgen"
)

// Errors returned by the store.
var (
	// ErrExists reports a Put of an object ID already present. Objects are
	// immutable, so a duplicate Put is a protocol error.
	ErrExists = errors.New("objectstore: object already exists")
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("objectstore: object not found")
	// ErrOutOfMemory reports that eviction could not free enough space.
	ErrOutOfMemory = errors.New("objectstore: out of memory")
	// ErrTooLarge reports an object larger than the store's capacity.
	ErrTooLarge = errors.New("objectstore: object exceeds store capacity")
	// ErrPinned reports a Delete of a pinned object.
	ErrPinned = errors.New("objectstore: object is pinned")
)

// SpillFunc moves an evicted object to a lower storage tier. If it returns
// an error the eviction is abandoned and Put fails with ErrOutOfMemory.
type SpillFunc func(id idgen.ObjectID, data []byte, format string) error

// Stats counts store activity.
type Stats struct {
	Puts      int64
	Hits      int64
	Misses    int64
	Evictions int64
	Spills    int64
}

// counters is the live form of Stats: atomics, so snapshots and bumps on
// paths that already dropped the store lock never contend on it.
type counters struct {
	puts      atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	spills    atomic.Int64
}

type entry struct {
	id     idgen.ObjectID
	data   []byte
	format string
	pins   int
	elem   *list.Element // position in LRU list; nil while pinned
	// spilling is set while an eviction has handed the entry to the spill
	// function; the entry still serves Get until the spill returns.
	spilling bool
}

// Store is one node's object store. It is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[idgen.ObjectID]*entry
	lru      *list.List // front = least recently used
	spill    SpillFunc
	stats    counters
}

// New returns a store with the given capacity in bytes. spill may be nil,
// in which case evicted objects are dropped.
func New(capacity int64, spill SpillFunc) *Store {
	return &Store{
		capacity: capacity,
		entries:  make(map[idgen.ObjectID]*entry),
		lru:      list.New(),
		spill:    spill,
	}
}

// SetSpill replaces the spill function. The caching layer uses this to wire
// eviction into the disaggregated-memory tier after store construction.
func (s *Store) SetSpill(spill SpillFunc) {
	s.mu.Lock()
	s.spill = spill
	s.mu.Unlock()
}

// Put stores an immutable object. It evicts unpinned objects (LRU-first)
// if needed to make room.
func (s *Store) Put(id idgen.ObjectID, data []byte, format string) error {
	size := int64(len(data))
	if size > s.capacity {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, size, s.capacity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[id]; ok {
		return ErrExists
	}
	if err := s.makeRoomLocked(size); err != nil {
		return err
	}
	// makeRoomLocked may drop the lock while spilling, so a concurrent Put
	// of the same ID can land in the meantime. Inserting again would
	// overwrite the map entry, leave the first entry's element stranded in
	// the LRU list, and double-count used bytes.
	if _, ok := s.entries[id]; ok {
		return ErrExists
	}
	e := &entry{id: id, data: data, format: format}
	e.elem = s.lru.PushBack(e)
	s.entries[id] = e
	s.used += size
	s.stats.puts.Add(1)
	return nil
}

// makeRoomLocked evicts LRU entries until size bytes fit. Caller holds mu.
func (s *Store) makeRoomLocked(size int64) error {
	for s.used+size > s.capacity {
		front := s.lru.Front()
		if front == nil {
			return fmt.Errorf("%w: need %d bytes, %d used of %d, rest pinned",
				ErrOutOfMemory, size, s.used, s.capacity)
		}
		victim := front.Value.(*entry)
		if s.spill != nil {
			// Release the lock during the spill: it may cross the fabric.
			victim.spilling = true
			s.mu.Unlock()
			err := s.spill(victim.id, victim.data, victim.format)
			s.mu.Lock()
			victim.spilling = false
			if err != nil {
				return fmt.Errorf("%w: spill failed: %v", ErrOutOfMemory, err)
			}
			s.stats.spills.Add(1)
			// Re-check: the entry may have been deleted or pinned while
			// the lock was released.
			if cur, ok := s.entries[victim.id]; !ok || cur != victim || victim.elem == nil {
				continue
			}
		}
		s.lru.Remove(victim.elem)
		delete(s.entries, victim.id)
		s.used -= int64(len(victim.data))
		s.stats.evictions.Add(1)
	}
	return nil
}

// Get returns an object's data and format. The returned slice must not be
// modified. Get refreshes the object's LRU position.
func (s *Store) Get(id idgen.ObjectID) ([]byte, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		s.stats.misses.Add(1)
		return nil, "", ErrNotFound
	}
	s.stats.hits.Add(1)
	if e.elem != nil {
		s.lru.MoveToBack(e.elem)
	}
	return e.data, e.format, nil
}

// Contains reports whether the object is resident without touching LRU
// order or hit/miss stats.
func (s *Store) Contains(id idgen.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[id]
	return ok
}

// Keeps reports whether the object is resident and not being evicted: an
// entry handed to the spill function still serves Get and Contains, but
// Keeps reports false for it until the spill returns.
func (s *Store) Keeps(id idgen.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	return ok && !e.spilling
}

// Size returns the resident size of an object, or ErrNotFound.
func (s *Store) Size(id idgen.ObjectID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return 0, ErrNotFound
	}
	return int64(len(e.data)), nil
}

// Pin marks an object non-evictable. Pins nest.
func (s *Store) Pin(id idgen.ObjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return ErrNotFound
	}
	e.pins++
	if e.elem != nil {
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	return nil
}

// Unpin releases one pin; at zero pins the object becomes evictable again.
func (s *Store) Unpin(id idgen.ObjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return ErrNotFound
	}
	if e.pins == 0 {
		return fmt.Errorf("objectstore: unpin of unpinned object %s", id.Short())
	}
	e.pins--
	if e.pins == 0 {
		e.elem = s.lru.PushBack(e)
	}
	return nil
}

// Delete removes an object. Pinned objects cannot be deleted.
func (s *Store) Delete(id idgen.ObjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return ErrNotFound
	}
	if e.pins > 0 {
		return ErrPinned
	}
	if e.elem != nil {
		s.lru.Remove(e.elem)
	}
	delete(s.entries, id)
	s.used -= int64(len(e.data))
	return nil
}

// Used returns the resident bytes.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity returns the store capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// Len returns the number of resident objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// List returns the IDs of all resident objects, in unspecified order.
func (s *Store) List() []idgen.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]idgen.ObjectID, 0, len(s.entries))
	for id := range s.entries {
		out = append(out, id)
	}
	return out
}

// Stats returns a snapshot of activity counters without taking the store
// lock.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:      s.stats.puts.Load(),
		Hits:      s.stats.hits.Load(),
		Misses:    s.stats.misses.Load(),
		Evictions: s.stats.evictions.Load(),
		Spills:    s.stats.spills.Load(),
	}
}

// Clear drops every object, including pinned ones. Used by failure
// injection: a killed node loses its store contents.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[idgen.ObjectID]*entry)
	s.lru.Init()
	s.used = 0
}
