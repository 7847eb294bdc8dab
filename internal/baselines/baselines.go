// Package baselines implements the two deployment models Skadi is compared
// against in Figure 1:
//
//   - Serverful (Fig. 1a): a statically-reserved server pool; data moves
//     between pipeline stages in host memory, but capacity is reserved
//     whether used or not.
//   - Stateless serverless (Fig. 1b): pay-as-you-go functions that cannot
//     keep state, so every stage boundary bounces its data through slow
//     durable cloud storage.
//
// Experiment E1 runs the same multi-stage pipeline on both and on Skadi's
// stateful serverless runtime (caching-layer exchange) and compares
// simulated time, durable-storage traffic, and reserved capacity.
package baselines

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
)

// ErrNotFound reports a missing durable object.
var ErrNotFound = errors.New("baselines: object not found in durable store")

// DurableStore models cloud durable storage (S3-like): reliable, shared,
// and slow. It is a Durable endpoint on the fabric, so every transfer to or
// from it is charged to the Durable link class.
type DurableStore struct {
	fabric *fabric.Fabric
	node   idgen.NodeID

	mu    sync.Mutex
	blobs map[string][]byte
	puts  int64
	gets  int64
}

// NewDurableStore returns an empty store registered on the fabric.
func NewDurableStore(f *fabric.Fabric) *DurableStore {
	s := &DurableStore{fabric: f, node: idgen.Next(), blobs: make(map[string][]byte)}
	f.Register(s.node, fabric.Location{Island: -1, Durable: true})
	return s
}

// Put uploads a blob from the caller's node.
func (s *DurableStore) Put(from idgen.NodeID, key string, data []byte) error {
	if _, err := s.fabric.Move(context.TODO(), from, s.node, data, 0); err != nil {
		return fmt.Errorf("baselines: put %q: %w", key, err)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.blobs[key] = cp
	s.puts++
	s.mu.Unlock()
	return nil
}

// Get downloads a blob to the caller's node.
func (s *DurableStore) Get(to idgen.NodeID, key string) ([]byte, error) {
	s.mu.Lock()
	data, ok := s.blobs[key]
	if ok {
		s.gets++
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if _, err := s.fabric.Move(context.TODO(), s.node, to, data, 0); err != nil {
		return nil, fmt.Errorf("baselines: get %q: %w", key, err)
	}
	return data, nil
}

// Ops returns cumulative (puts, gets).
func (s *DurableStore) Ops() (puts, gets int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, s.gets
}

// Stage is one pipeline stage: bytes in, bytes out.
type Stage func(data []byte) []byte

// Result summarizes one pipeline run.
type Result struct {
	// Elapsed is the simulated end-to-end time (fabric time; compute is
	// identical across models so it cancels out of the comparison).
	Elapsed time.Duration
	// DurableBytes moved through durable storage.
	DurableBytes int64
	// TotalBytes moved over any link.
	TotalBytes int64
	// Messages sent over any link.
	Messages int64
	// ReservedSlotSeconds is capacity reserved regardless of use
	// (serverful only; serverless models bill per use).
	ReservedSlotSeconds float64
}

// delta computes fabric stats accumulated during fn.
func delta(f *fabric.Fabric, fn func()) (fabric.Stats, fabric.Stats) {
	durBefore := f.ClassStats(fabric.Durable)
	totBefore := f.TotalStats()
	fn()
	durAfter := f.ClassStats(fabric.Durable)
	totAfter := f.TotalStats()
	return fabric.Stats{
			Messages:     durAfter.Messages - durBefore.Messages,
			Bytes:        durAfter.Bytes - durBefore.Bytes,
			LogicalBytes: durAfter.LogicalBytes - durBefore.LogicalBytes,
			SimTime:      durAfter.SimTime - durBefore.SimTime,
		}, fabric.Stats{
			Messages:     totAfter.Messages - totBefore.Messages,
			Bytes:        totAfter.Bytes - totBefore.Bytes,
			LogicalBytes: totAfter.LogicalBytes - totBefore.LogicalBytes,
			SimTime:      totAfter.SimTime - totBefore.SimTime,
		}
}

// RunStateless executes the pipeline in the Fig. 1b model: each function
// reads its input from durable storage and writes its output back, because
// stateless functions cannot hand data to each other directly.
func RunStateless(f *fabric.Fabric, stages []Stage, input []byte) (Result, error) {
	store := NewDurableStore(f)
	fn := idgen.Next() // where the functions run; every path to the store is Durable
	var out Result
	var err error
	dur, tot := delta(f, func() {
		err = store.Put(fn, "stage-0-in", input)
		for i := 0; err == nil && i < len(stages); i++ {
			var in []byte
			if in, err = store.Get(fn, fmt.Sprintf("stage-%d-in", i)); err == nil {
				err = store.Put(fn, fmt.Sprintf("stage-%d-in", i+1), stages[i](in))
			}
		}
	})
	if err != nil {
		return out, err
	}
	out.DurableBytes = dur.LogicalBytes
	out.TotalBytes = tot.LogicalBytes
	out.Messages = tot.Messages
	out.Elapsed = tot.SimTime
	return out, nil
}

// RunServerful executes the pipeline in the Fig. 1a model: one reserved
// server runs all stages back to back; inter-stage data stays in host
// memory (loopback). The reservation cost covers the whole pool for the
// whole run regardless of utilization.
func RunServerful(f *fabric.Fabric, stages []Stage, input []byte, reservedSlots int) (Result, error) {
	node := idgen.Next()
	f.Register(node, fabric.Location{Rack: 0, Island: -1})
	defer f.Unregister(node)
	var out Result
	dur, tot := delta(f, func() {
		data := input
		for _, stage := range stages {
			// In-memory handoff; node stays registered until the run ends,
			// so the move cannot fail.
			_, _ = f.Move(context.TODO(), node, node, data, 0)
			data = stage(data)
		}
	})
	out.DurableBytes = dur.LogicalBytes
	out.TotalBytes = tot.LogicalBytes
	out.Messages = tot.Messages
	out.Elapsed = tot.SimTime
	// Reserve the pool for the pipeline duration (minimum 1 second of
	// reservation: serverful capacity is provisioned, not burst).
	seconds := out.Elapsed.Seconds()
	if seconds < 1 {
		seconds = 1
	}
	out.ReservedSlotSeconds = float64(reservedSlots) * seconds
	return out, nil
}
