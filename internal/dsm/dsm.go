// Package dsm implements the disaggregated memory substrate: a remote
// memory pool hosted on a memory blade, reached over the fabric. The
// caching layer uses it as its coldest tier and the object stores use it as
// a spill target — the paper's Gen-2 extension "to resolve potential
// out-of-memory and to increase availability, we extend the caching layer
// to include disaggregated memory" (§2.3.2).
package dsm

import (
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
	blobs    map[idgen.ObjectID][]byte

	reads, writes int64
}

// New returns a pool of the given capacity hosted on the blade node.
func New(f *fabric.Fabric, blade idgen.NodeID, capacity int64) *Pool {
	return &Pool{
		blade:    blade,
		fabric:   f,
		capacity: capacity,
		blobs:    make(map[idgen.ObjectID][]byte),
	}
}

// Write stores a blob from the given node, paying the fabric cost of
// moving the data to the blade. The pool copies data.
func (p *Pool) Write(from idgen.NodeID, id idgen.ObjectID, data []byte) error {
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
	p.blobs[id] = cp
	p.used += int64(len(cp))
	p.writes++
	p.mu.Unlock()
	// Charge the transfer outside the lock: it may sleep. Demotions stream
	// in pipelined chunks so a large spill pays one latency, not a
	// whole-object stall per message.
	p.fabric.TransferData(from, p.blade, data)
	return nil
}

// Read fetches a blob to the given node, paying the fabric cost of moving
// the data back. The returned slice must not be modified.
func (p *Pool) Read(to idgen.NodeID, id idgen.ObjectID) ([]byte, error) {
	p.mu.Lock()
	data, ok := p.blobs[id]
	if ok {
		p.reads++
	}
	p.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	// Promotions stream back in pipelined chunks (see Write).
	p.fabric.TransferData(p.blade, to, data)
	return data, nil
}

// Contains reports whether the blob is present, paying only a control
// message (no payload) to the blade.
func (p *Pool) Contains(from idgen.NodeID, id idgen.ObjectID) bool {
	p.mu.Lock()
	_, ok := p.blobs[id]
	p.mu.Unlock()
	p.fabric.Send(from, p.blade, 0)
	return ok
}

// Free releases a blob.
func (p *Pool) Free(id idgen.ObjectID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	data, ok := p.blobs[id]
	if !ok {
		return ErrNotFound
	}
	delete(p.blobs, id)
	p.used -= int64(len(data))
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
