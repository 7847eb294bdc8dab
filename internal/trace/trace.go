// Package trace implements the runtime's distributed tracing subsystem:
// span-based timelines for every task, propagated across transport calls,
// with per-task critical-path analysis and a flame-style text renderer.
//
// The Skadi paper's architectural arguments (Gen-1 vs Gen-2 raylet
// placement, pull vs push future resolution, durable-store bouncing) are
// arguments about *message paths*. Aggregate counters can say how many
// messages flowed; only per-task span timelines can say which hops sat on
// a task's critical path. Every layer of the stack opens spans — task
// submit (runtime), placement (scheduler), lease/arg-resolution/exec
// (raylet), per-tier get/put (caching), and fabric transfers annotated
// with their link class — all sharing one TraceID threaded through the
// transport, so a task's end-to-end latency decomposes into named,
// attributable pieces.
package trace

import (
	"context"
	"sync"
	"time"

	"skadi/internal/idgen"
)

// Span kinds opened by the runtime layers. Kinds are plain strings so
// instrumentation sites can add new ones without touching this package.
const (
	// KindSubmit is the root span of a task trace, opened at Submit.
	KindSubmit = "submit"
	// KindSchedPick covers scheduler placement.
	KindSchedPick = "sched-pick"
	// KindExec covers the compute phase of a task on its raylet.
	KindExec = "exec"
	// KindSlotWait covers waiting for a worker slot (the lease).
	KindSlotWait = "slot-wait"
	// KindPullStall covers blocking argument resolution — the consumer
	// stall the pull-vs-push experiment measures.
	KindPullStall = "pull-stall"
	// KindFetch covers pulling object bytes from a remote location.
	KindFetch = "fetch"
	// KindCommit covers result commit: caching-layer put, own.ready, and
	// pushes to subscribers.
	KindCommit = "commit"
	// KindPush covers one proactive push to a consumer.
	KindPush = "push"
	// KindCacheGet and KindCachePut cover caching-layer operations; the
	// "tier" attribute names the memory tier that served them.
	KindCacheGet = "cache-get"
	KindCachePut = "cache-put"
	// KindXfer is a fabric transfer on an ordinary link; the "link"
	// attribute carries the class.
	KindXfer = "xfer"
	// KindDPUHop is a fabric transfer over a Gen-1 DPU hop.
	KindDPUHop = "dpu-hop"
	// KindDurable is a fabric transfer bouncing through durable storage.
	KindDurable = "durable-bounce"
	// KindMigrateActor covers one live actor migration: the source raylet
	// freezes the actor, ships its state (install), retargets the actor's
	// record and only then drops its own copy.
	KindMigrateActor = "migrate-actor"
	// KindMigrateObject covers one resident-object migration: copy via the
	// fabric, retarget of the ownership record, drop at the source.
	KindMigrateObject = "migrate-object"
	// KindDecommission is the root span of a node drain: actor and object
	// migrations appear as its children, so a drain's cost decomposes on
	// the critical path like any task.
	KindDecommission = "decommission"
	// KindRebalance is the root span of a scheduler-driven rebalance pass.
	KindRebalance = "rebalance"
)

// SpanContext identifies the current position in a trace; it is what
// transports propagate between nodes.
type SpanContext struct {
	Trace idgen.ID
	Span  idgen.ID
}

// IsValid reports whether the context names a real trace.
func (sc SpanContext) IsValid() bool { return !sc.Trace.IsNil() }

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context carrying the tracer. Instrumentation sites
// start spans only when both a tracer and a span context are present, so
// untraced paths cost one map lookup.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// ContextWith returns a context positioned at sc; transports use it to
// re-anchor an inbound call under the caller's span.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey, sc)
}

// FromContext returns the current span context, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanKey).(SpanContext)
	return sc, ok && sc.IsValid()
}

// Data is one immutable span snapshot.
type Data struct {
	Trace  idgen.ID
	ID     idgen.ID
	Parent idgen.ID
	// Kind names what the span covers (see Kind constants).
	Kind string
	// Node is the node the span executed on (may be nil for placement).
	Node idgen.NodeID
	// Start and End are wall-clock bounds.
	Start, End time.Time
	// Sim is the simulated duration for fabric spans (the deterministic
	// cost-model time, independent of TimeScale).
	Sim time.Duration
	// Attrs carries free-form annotations (link class, tier, object id…).
	Attrs map[string]string
}

// Dur returns the span's wall-clock duration (zero if still open).
func (d *Data) Dur() time.Duration {
	if d.End.IsZero() {
		return 0
	}
	return d.End.Sub(d.Start)
}

// Span is a live, mutable span handle. All methods are safe on a nil
// receiver, so instrumentation sites never branch on "is tracing on".
type Span struct {
	t *Tracer
	d *Data
}

// SetAttr annotates the span. Returns the span for chaining.
func (s *Span) SetAttr(k, v string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	if s.d.Attrs == nil {
		s.d.Attrs = make(map[string]string, 2)
	}
	s.d.Attrs[k] = v
	s.t.mu.Unlock()
	return s
}

// SetSim records the simulated duration of a fabric span.
func (s *Span) SetSim(d time.Duration) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.d.Sim = d
	s.t.mu.Unlock()
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.d.End.IsZero() {
		s.d.End = time.Now()
	}
	s.t.mu.Unlock()
}

// Context returns the span's context for explicit propagation (e.g. onto
// a wire frame).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.d.Trace, Span: s.d.ID}
}

// Tracer is the span store. One tracer serves a whole runtime; it is safe
// for concurrent use and bounds its memory by evicting the oldest traces.
type Tracer struct {
	mu        sync.Mutex
	traces    map[idgen.ID][]*Data
	order     []idgen.ID // insertion order, for eviction and Traces()
	maxTraces int
	maxSpans  int
	dropped   int64
}

// Limits for New. Exported so tests and tools can size stores explicitly
// via NewWithLimits.
const (
	// DefaultMaxTraces bounds retained traces (oldest evicted first).
	DefaultMaxTraces = 1024
	// DefaultMaxSpans bounds spans per trace (excess spans are dropped
	// and counted).
	DefaultMaxSpans = 16384
)

// New returns a tracer with default limits.
func New() *Tracer { return NewWithLimits(DefaultMaxTraces, DefaultMaxSpans) }

// NewWithLimits returns a tracer retaining at most maxTraces traces of at
// most maxSpans spans each.
func NewWithLimits(maxTraces, maxSpans int) *Tracer {
	if maxTraces < 1 {
		maxTraces = 1
	}
	if maxSpans < 1 {
		maxSpans = 1
	}
	return &Tracer{
		traces:    make(map[idgen.ID][]*Data),
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
	}
}

// StartRoot opens the root span of a new trace (typically at task submit,
// with the task ID as the trace ID) and returns a context positioned
// under it.
func (t *Tracer) StartRoot(ctx context.Context, traceID idgen.ID, kind string, node idgen.NodeID) (context.Context, *Span) {
	if t == nil || traceID.IsNil() {
		return ctx, nil
	}
	ctx = WithTracer(ctx, t)
	sp := t.record(traceID, idgen.Nil, kind, node)
	if sp == nil {
		return ctx, nil
	}
	return ContextWith(ctx, sp.Context()), sp
}

// Start opens a child span under the context's current position. It is a
// no-op (returning a nil, safe-to-use span) when the context carries no
// tracer or no trace.
func Start(ctx context.Context, kind string, node idgen.NodeID) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sc, ok := FromContext(ctx)
	if !ok {
		return ctx, nil
	}
	sp := t.record(sc.Trace, sc.Span, kind, node)
	if sp == nil {
		return ctx, nil
	}
	return ContextWith(ctx, sp.Context()), sp
}

// record allocates and stores one span, enforcing limits. Returns nil if
// the trace is at its span cap.
func (t *Tracer) record(traceID, parent idgen.ID, kind string, node idgen.NodeID) *Span {
	d := &Data{
		Trace:  traceID,
		ID:     idgen.Next(),
		Parent: parent,
		Kind:   kind,
		Node:   node,
		Start:  time.Now(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, known := t.traces[traceID]
	if !known {
		if len(t.order) >= t.maxTraces {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, oldest)
		}
		t.order = append(t.order, traceID)
	}
	if len(spans) >= t.maxSpans {
		t.dropped++
		return nil
	}
	t.traces[traceID] = append(spans, d)
	return &Span{t: t, d: d}
}

// Spans returns deep copies of a trace's spans in recording order.
func (t *Tracer) Spans(traceID idgen.ID) []Data {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.traces[traceID]
	out := make([]Data, 0, len(spans))
	for _, d := range spans {
		c := *d
		if d.Attrs != nil {
			c.Attrs = make(map[string]string, len(d.Attrs))
			for k, v := range d.Attrs {
				c.Attrs[k] = v
			}
		}
		out = append(out, c)
	}
	return out
}

// Traces returns retained trace IDs, oldest first.
func (t *Tracer) Traces() []idgen.ID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]idgen.ID(nil), t.order...)
}

// Dropped returns the number of spans discarded at the per-trace cap.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards every retained trace.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.traces = make(map[idgen.ID][]*Data)
	t.order = nil
	t.dropped = 0
	t.mu.Unlock()
}
