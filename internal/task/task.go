// Package task defines the distributed task model shared by the scheduler,
// raylets, lineage log, and runtime: task specifications (function name,
// arguments by value or by reference, pre-assigned return object IDs) and
// the function registry tasks execute from.
//
// Functions are registered by name on every node — the moral equivalent of
// Ray shipping the same code to all workers — so a Spec is fully portable:
// any raylet holding the registry can execute it.
package task

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/wire"
)

// Arg is one task argument: either an inline value or a reference to an
// object in the caching layer (a future).
type Arg struct {
	// Value is the inline bytes; used when IsRef is false.
	Value []byte
	// Ref is the object reference; used when IsRef is true.
	Ref idgen.ObjectID
	// IsRef selects between the two.
	IsRef bool
}

// Wire lists Arg's fields for the message codec (see transport.Message).
func (a *Arg) Wire(c *wire.Coder) {
	c.LenBytes(&a.Value)
	c.ID(&a.Ref)
	c.Bool(&a.IsRef)
}

// argWireMin is the smallest encoded Arg: an empty Value's length byte, the
// 16-byte Ref and the IsRef byte.
const argWireMin = 18

// ValueArg returns an inline-value argument.
func ValueArg(v []byte) Arg { return Arg{Value: v} }

// RefArg returns a pass-by-reference argument.
func RefArg(id idgen.ObjectID) Arg { return Arg{Ref: id, IsRef: true} }

// Spec fully describes one task invocation. Specs are immutable once
// submitted and are recorded in the lineage log for replay.
type Spec struct {
	ID  idgen.TaskID
	Job idgen.JobID
	// Fn names a registered function.
	Fn   string
	Args []Arg
	// Returns are the pre-assigned object IDs for the task's outputs, so
	// consumers can reference results before the task runs (futures).
	Returns []idgen.ObjectID
	// Backend is the kernel backend this task requires: "cpu", "gpu", or
	// "fpga". The scheduler places the task only on matching nodes.
	Backend string
	// Duration is the simulated kernel time; functions honour it via
	// Context.Compute. Zero means the function does real work only.
	Duration time.Duration
	// Owner is the node that submitted the task (the future's owner).
	Owner idgen.NodeID
	// Gang names a gang-scheduling group: all tasks sharing a non-empty
	// Gang within a job are placed atomically (SPMD subgraphs, §2.3).
	Gang string
	// Actor pins the task to the actor's node for stateful execution.
	Actor idgen.ActorID
	// Meta carries free-form parameters to the function (the physical
	// planner uses it to describe argument grouping and shard indices).
	Meta map[string]string
	// Tenant attributes the task to a serving tenant for admission,
	// fair-share scheduling, quotas, and per-tenant accounting. It rides
	// the wire beside TraceID/SpanID/deadline so attribution survives the
	// TCP hop. Empty means unattributed (single-job workloads).
	Tenant string
}

// Wire lists Spec's fields for the message codec (see transport.Message).
func (s *Spec) Wire(c *wire.Coder) {
	c.ID(&s.ID)
	c.ID(&s.Job)
	c.String(&s.Fn)
	wire.Slice(c, &s.Args, argWireMin, func(c *wire.Coder, a *Arg) { a.Wire(c) })
	wire.Slice(c, &s.Returns, 16, (*wire.Coder).ID)
	c.String(&s.Backend)
	c.Varint((*int64)(&s.Duration))
	c.ID(&s.Owner)
	c.String(&s.Gang)
	c.ID(&s.Actor)
	wire.Map(c, &s.Meta, (*wire.Coder).String)
	c.String(&s.Tenant)
}

// Context is passed to executing functions.
type Context struct {
	// Node is the executing node.
	Node idgen.NodeID
	// Backend is the executing node's kernel backend.
	Backend string
	// TimeScale scales simulated compute, matching the fabric's scale.
	TimeScale float64
	// Spec is the task being executed.
	Spec *Spec
	// ActorState is the actor's private state for actor tasks; the raylet
	// persists it between calls.
	ActorState map[string][]byte
	// Ctx is the execution context: it is cancelled when the task is
	// revoked (Runtime.Cancel, a submit deadline, node drain). Long-running
	// functions should check it between units of work; Compute honours it
	// automatically.
	Ctx context.Context
}

// Err returns the execution context's error, or nil when the task has no
// context or has not been cancelled. Function bodies use it as a cheap
// cancellation checkpoint.
func (c *Context) Err() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// Compute models d of kernel time on the executing backend, scaled by the
// context's TimeScale. Sub-200µs scaled durations are spin-waited for
// precision (same rationale as fabric delays). Cancellation of Ctx cuts the
// wait short: a cancelled task stops burning its slot mid-kernel.
func (c *Context) Compute(d time.Duration) {
	if c.TimeScale <= 0 || d <= 0 {
		return
	}
	d = time.Duration(float64(d) * c.TimeScale)
	if d < 200*time.Microsecond {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if c.Err() != nil {
				return
			}
		}
		return
	}
	if c.Ctx == nil {
		time.Sleep(d)
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-c.Ctx.Done():
	}
}

// Func is an executable task body: resolved argument bytes in, output
// bytes out (one per Returns entry).
type Func func(ctx *Context, args [][]byte) ([][]byte, error)

// ErrUnknownFn reports a Spec.Fn with no registration.
var ErrUnknownFn = errors.New("task: unknown function")

// Registry maps function names to bodies. One Registry is shared by all
// raylets in a cluster (code is shipped everywhere).
type Registry struct {
	mu  sync.RWMutex
	fns map[string]Func
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fns: make(map[string]Func)}
}

// Register adds a function; duplicate names are replaced (latest wins, as
// with code redeployment).
func (r *Registry) Register(name string, fn Func) {
	r.mu.Lock()
	r.fns[name] = fn
	r.mu.Unlock()
}

// Unregister removes functions; names not registered are ignored. The
// caller must know no task naming them can still be dispatched or replayed.
func (r *Registry) Unregister(names ...string) {
	r.mu.Lock()
	for _, name := range names {
		delete(r.fns, name)
	}
	r.mu.Unlock()
}

// Lookup returns the function registered under name.
func (r *Registry) Lookup(name string) (Func, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.fns[name]
	if !ok {
		return nil, skaderr.Mark(skaderr.NotFound, fmt.Errorf("%w: %q", ErrUnknownFn, name))
	}
	return fn, nil
}

// Names returns all registered function names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.fns))
	for name := range r.fns {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RefArgs returns the object IDs of all pass-by-reference arguments.
func (s *Spec) RefArgs() []idgen.ObjectID {
	var out []idgen.ObjectID
	for _, a := range s.Args {
		if a.IsRef {
			out = append(out, a.Ref)
		}
	}
	return out
}

// NewSpec allocates a Spec with a fresh task ID and n pre-assigned return
// object IDs.
func NewSpec(job idgen.JobID, fn string, args []Arg, nReturns int) *Spec {
	returns := make([]idgen.ObjectID, nReturns)
	for i := range returns {
		returns[i] = idgen.Next()
	}
	return &Spec{
		ID:      idgen.Next(),
		Job:     job,
		Fn:      fn,
		Args:    args,
		Returns: returns,
		Backend: "cpu",
	}
}
