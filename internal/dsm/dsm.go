// Package dsm implements the disaggregated memory substrate: a remote
// memory pool hosted on a memory blade, reached over the fabric. The
// caching layer uses it as its coldest tier and the object stores use it as
// a spill target — the paper's Gen-2 extension "to resolve potential
// out-of-memory and to increase availability, we extend the caching layer
// to include disaggregated memory" (§2.3.2).
//
// The pool is the index of what was spilled: each blob keeps its format
// beside its bytes, so the caching layer asks the pool, and keeps no table
// of its own, to learn whether and how an object sits on the blade.
package dsm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
)

// Errors returned by the pool.
var (
	// ErrNotFound reports a missing blob.
	ErrNotFound = errors.New("dsm: blob not found")
	// ErrOutOfMemory reports pool exhaustion.
	ErrOutOfMemory = errors.New("dsm: pool out of memory")
	// ErrExists reports a duplicate Write.
	ErrExists = errors.New("dsm: blob already exists")
)

// Pool is a remote memory pool on one memory blade. Every access crosses
// the fabric from the accessor's node to the blade, so reads and writes pay
// realistic disaggregated-memory latency.
type Pool struct {
	blade  idgen.NodeID
	fabric *fabric.Fabric

	mu       sync.Mutex
	capacity int64
	used     int64
	blobs    map[idgen.ObjectID]blob

	reads, writes int64
}

// blob is one stored value and its format tag.
type blob struct {
	data   []byte
	format string
}

// New returns a pool of the given capacity hosted on the blade node.
func New(f *fabric.Fabric, blade idgen.NodeID, capacity int64) *Pool {
	return &Pool{
		blade:    blade,
		fabric:   f,
		capacity: capacity,
		blobs:    make(map[idgen.ObjectID]blob),
	}
}

// Write stores a blob and its format from the given node, paying the
// fabric cost of moving the data to the blade. The pool copies data. A
// write whose blade or writer has left the fabric fails typed and leaves
// the pool as it was.
func (p *Pool) Write(from idgen.NodeID, id idgen.ObjectID, data []byte, format string) error {
	p.mu.Lock()
	if _, ok := p.blobs[id]; ok {
		p.mu.Unlock()
		return ErrExists
	}
	if p.used+int64(len(data)) > p.capacity {
		p.mu.Unlock()
		return fmt.Errorf("%w: %d + %d > %d", ErrOutOfMemory, p.used, len(data), p.capacity)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	p.blobs[id] = blob{data: cp, format: format}
	p.used += int64(len(cp))
	p.writes++
	p.mu.Unlock()
	// Charge the transfer outside the lock: it may sleep. Demotions stream
	// in pipelined chunks so a large spill pays one latency, not a
	// whole-object stall per message.
	if _, err := p.fabric.Move(context.TODO(), from, p.blade, data, 0); err != nil {
		// The bytes never landed: take the reservation back, unless a
		// concurrent Free already did.
		p.mu.Lock()
		if _, ok := p.blobs[id]; ok {
			delete(p.blobs, id)
			p.used -= int64(len(cp))
		}
		p.writes--
		p.mu.Unlock()
		return fmt.Errorf("dsm: write %s: %w", id.Short(), err)
	}
	return nil
}

// Read fetches a blob and its format to the given node, paying the fabric
// cost of moving the data back. A missing blob costs no transfer. The
// returned slice must not be modified.
func (p *Pool) Read(to idgen.NodeID, id idgen.ObjectID) ([]byte, string, error) {
	p.mu.Lock()
	b, ok := p.blobs[id]
	if ok {
		p.reads++
	}
	p.mu.Unlock()
	if !ok {
		return nil, "", ErrNotFound
	}
	// Promotions stream back in pipelined chunks (see Write).
	if _, err := p.fabric.Move(context.TODO(), p.blade, to, b.data, 0); err != nil {
		return nil, "", fmt.Errorf("dsm: read %s: %w", id.Short(), err)
	}
	return b.data, b.format, nil
}

// Contains reports whether the blob is present on a blade that is still on
// the fabric. It moves nothing and charges no message: the caching layer
// asks it on its bookkeeping paths, as it asks a store.
func (p *Pool) Contains(id idgen.ObjectID) bool {
	p.mu.Lock()
	_, ok := p.blobs[id]
	p.mu.Unlock()
	if !ok {
		return false
	}
	_, up := p.fabric.Location(p.blade)
	return up
}

// Free releases a blob.
func (p *Pool) Free(id idgen.ObjectID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.blobs[id]
	if !ok {
		return ErrNotFound
	}
	delete(p.blobs, id)
	p.used -= int64(len(b.data))
	return nil
}

// Used returns the bytes in use.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Capacity returns the pool capacity.
func (p *Pool) Capacity() int64 { return p.capacity }

// Len returns the number of blobs.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.blobs)
}

// Accesses returns the cumulative (reads, writes).
func (p *Pool) Accesses() (reads, writes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reads, p.writes
}
