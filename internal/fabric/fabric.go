// Package fabric models the data-center interconnect of a disaggregated
// cluster: which link class connects two endpoints, what a message or bulk
// transfer costs on that link, and how many bytes/messages flowed where.
//
// The paper's architectural arguments (Gen-1 vs Gen-2 raylet placement,
// pull vs push future resolution, durable-storage bouncing) are arguments
// about message paths and their costs. The fabric makes those costs explicit
// and measurable: every Send/Transfer both accumulates deterministic
// simulated-time counters and (optionally) delays the caller by the scaled
// simulated duration so that concurrency effects (overlap, stalls) are real.
package fabric

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/trace"
	"skadi/internal/wire"
)

// LinkClass identifies a class of interconnect with a shared cost profile.
type LinkClass int

// Link classes, ordered roughly by cost.
const (
	// Loopback is communication within a single node.
	Loopback LinkClass = iota
	// Island is the tightly-coupled high-speed interconnect inside a
	// highly-customized cluster (NVLink/ICI-style).
	Island
	// DPUHop is the PCIe + DPU-processing hop between a device and the DPU
	// fronting it (or between two devices proxied through one DPU).
	DPUHop
	// Rack is the intra-rack network (RDMA-style).
	Rack
	// Core is the cross-rack data-center network.
	Core
	// Durable is the path to cloud durable storage (the slow path that
	// stateless serverless functions bounce data through, Fig. 1b).
	Durable
	numClasses
)

// String returns the class name.
func (c LinkClass) String() string {
	switch c {
	case Loopback:
		return "loopback"
	case Island:
		return "island"
	case DPUHop:
		return "dpu-hop"
	case Rack:
		return "rack"
	case Core:
		return "core"
	case Durable:
		return "durable"
	default:
		return fmt.Sprintf("link(%d)", int(c))
	}
}

// LinkProfile is the cost model of one link class.
type LinkProfile struct {
	// Latency is the fixed per-message cost.
	Latency time.Duration
	// Bandwidth is the payload cost in bytes per second.
	Bandwidth float64
}

// DefaultProfiles returns the cost profiles used throughout the experiments.
// The absolute values are representative of 2023-era hardware; experiments
// depend only on their ordering and rough ratios.
func DefaultProfiles() map[LinkClass]LinkProfile {
	return map[LinkClass]LinkProfile{
		Loopback: {Latency: 200 * time.Nanosecond, Bandwidth: 20e9},
		Island:   {Latency: 1 * time.Microsecond, Bandwidth: 50e9},
		DPUHop:   {Latency: 5 * time.Microsecond, Bandwidth: 8e9},
		Rack:     {Latency: 15 * time.Microsecond, Bandwidth: 3e9},
		Core:     {Latency: 40 * time.Microsecond, Bandwidth: 1.5e9},
		Durable:  {Latency: 5 * time.Millisecond, Bandwidth: 300e6},
	}
}

// Location places an endpoint in the data-center topology.
type Location struct {
	// Rack is the rack number.
	Rack int
	// Island is the tightly-coupled island id, or -1 if the endpoint is not
	// part of one.
	Island int
	// DPU is the DPU fronting this endpoint, or the nil ID for endpoints
	// that are directly attached to the network (servers, DPUs themselves).
	DPU idgen.NodeID
}

// DefaultChunkBytes is the chunk size used by TransferChunked when the
// Config does not override it. 256 KiB matches the sweet spot of
// RDMA/NVLink bulk moves: large enough to amortize per-message headers,
// small enough that a transfer can be overlapped and cancelled mid-flight.
const DefaultChunkBytes = 256 << 10

// DefaultCompressMinBytes is the smallest payload worth compressing when
// Config.CompressMinBytes is zero. Below ~4 KiB the per-block overhead and
// codec latency outweigh the wire savings on every modelled link.
const DefaultCompressMinBytes = 4 << 10

// DefaultCompression returns the per-link-class compression policy: the
// LZ4-style codec runs faster than rack-and-beyond links (Rack, Core,
// Durable), so shipping fewer bytes wins there; tightly-coupled Gen-2
// links (Loopback, Island) and the PCIe DPU hop are faster than the codec
// and ship raw.
func DefaultCompression() map[LinkClass]bool {
	return map[LinkClass]bool{Rack: true, Core: true, Durable: true}
}

// NoCompression returns a policy that ships raw on every link class; use it
// in Config.Compress to reproduce the uncompressed wire path (E18's
// baseline arm).
func NoCompression() map[LinkClass]bool {
	return map[LinkClass]bool{}
}

// Config configures a Fabric.
type Config struct {
	// TimeScale multiplies simulated durations before delaying the caller.
	// 1.0 delays in real time; 0 disables delays entirely (pure
	// accounting). Tests typically use 0; experiments use small scales.
	TimeScale float64
	// Profiles overrides the per-class cost model; nil uses
	// DefaultProfiles.
	Profiles map[LinkClass]LinkProfile
	// ChunkBytes is the chunk size for TransferChunked; 0 means
	// DefaultChunkBytes.
	ChunkBytes int
	// Compress is the per-link-class compression policy for the data-aware
	// transfer APIs (TransferData and friends); nil uses
	// DefaultCompression. Pass NoCompression() to ship raw everywhere.
	Compress map[LinkClass]bool
	// CompressMinBytes is the smallest payload the fabric will try to
	// compress; 0 means DefaultCompressMinBytes.
	CompressMinBytes int
}

// classStats holds per-class accounting. All fields are atomics so the hot
// path takes no locks. bytes is bytes-on-wire (post-compression);
// logicalBytes is the pre-compression payload size. The two differ only on
// compressed link classes fed through the data-aware transfer APIs.
type classStats struct {
	messages     atomic.Int64
	bytes        atomic.Int64
	logicalBytes atomic.Int64
	simNanos     atomic.Int64
}

// Fabric is the cluster interconnect. It is safe for concurrent use.
type Fabric struct {
	timeScale   float64
	chunkBytes  int
	compressMin int
	compress    [numClasses]bool
	profiles    [numClasses]LinkProfile
	stats       [numClasses]classStats
	// slow holds per-class float64 multipliers (as bits) applied to link
	// costs; 0 means unset (×1). The chaos engine uses it to degrade link
	// classes without rebuilding the fabric.
	slow [numClasses]atomic.Uint64

	mu        sync.RWMutex
	locations map[idgen.NodeID]Location
	// departed marks endpoints that were explicitly Unregistered (crash,
	// decommission). Unlike never-registered endpoints — which are simply
	// treated as remote — transfers touching a departed endpoint fail with
	// a typed skaderr.Unavailable.
	departed map[idgen.NodeID]bool
}

// New returns a Fabric with the given configuration.
func New(cfg Config) *Fabric {
	f := &Fabric{
		timeScale:   cfg.TimeScale,
		chunkBytes:  cfg.ChunkBytes,
		compressMin: cfg.CompressMinBytes,
		locations:   make(map[idgen.NodeID]Location),
		departed:    make(map[idgen.NodeID]bool),
	}
	if f.chunkBytes <= 0 {
		f.chunkBytes = DefaultChunkBytes
	}
	if f.compressMin <= 0 {
		f.compressMin = DefaultCompressMinBytes
	}
	profiles := cfg.Profiles
	if profiles == nil {
		profiles = DefaultProfiles()
	}
	for c, p := range profiles {
		if c >= 0 && c < numClasses {
			f.profiles[c] = p
		}
	}
	policy := cfg.Compress
	if policy == nil {
		policy = DefaultCompression()
	}
	for c, on := range policy {
		if c >= 0 && c < numClasses {
			f.compress[c] = on
		}
	}
	return f
}

// Compressible reports whether the fabric compresses payloads on the given
// link class.
func (f *Fabric) Compressible(class LinkClass) bool {
	return class >= 0 && class < numClasses && f.compress[class]
}

// wireSizeSampleMax bounds how many payload bytes wireSize measures with
// the codec; larger payloads extrapolate the sample's ratio. The cost model
// needs entropy sensitivity — all-zero pages vs random bytes — not a second
// full compression pass on every multi-megabyte transfer.
const wireSizeSampleMax = 256 << 10

// wireSize returns the bytes-on-wire for a payload crossing class: the
// compressed size when the class's policy says compress and the payload
// clears the minimum, the raw size otherwise. The codec's match finder
// really runs over a bounded prefix (wire.CompressedLen: the block is
// measured, never written), so the modeled wire bytes reflect the
// payload's actual entropy, not a guessed ratio.
func (f *Fabric) wireSize(class LinkClass, data []byte) int {
	if !f.Compressible(class) || len(data) < f.compressMin {
		return len(data)
	}
	sample := data
	if len(sample) > wireSizeSampleMax {
		sample = data[:wireSizeSampleMax]
	}
	n := wire.CompressedLen(sample)
	if n >= len(sample) {
		// Incompressible payload: the sender ships it raw (plus nothing —
		// the one-byte framing flag is lost in message overhead).
		return len(data)
	}
	if len(sample) < len(data) {
		// Extrapolate the sampled ratio across the whole payload.
		n = int(float64(len(data)) * float64(n) / float64(len(sample)))
		if n >= len(data) {
			return len(data)
		}
		if n < 1 {
			n = 1
		}
	}
	return n
}

// Register places an endpoint in the topology. Re-registering replaces the
// previous location and clears any departed mark.
func (f *Fabric) Register(node idgen.NodeID, loc Location) {
	f.mu.Lock()
	f.locations[node] = loc
	delete(f.departed, node)
	f.mu.Unlock()
}

// Unregister removes an endpoint. Subsequent SendCtx/TransferChunkedCtx
// calls touching it fail with skaderr.Unavailable — including transfers
// already in flight, which abort at the next chunk boundary.
func (f *Fabric) Unregister(node idgen.NodeID) {
	f.mu.Lock()
	delete(f.locations, node)
	f.departed[node] = true
	f.mu.Unlock()
}

// Location returns the registered placement of an endpoint.
func (f *Fabric) Location(node idgen.NodeID) (Location, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	loc, ok := f.locations[node]
	return loc, ok
}

// endpointErr returns the typed failure for a transfer touching a departed
// endpoint, or nil.
func (f *Fabric) endpointErr(from, to idgen.NodeID) error {
	f.mu.RLock()
	gf, gt := f.departed[from], f.departed[to]
	f.mu.RUnlock()
	if gt {
		return skaderr.New(skaderr.Unavailable, "fabric: endpoint %s unregistered", to.Short())
	}
	if gf {
		return skaderr.New(skaderr.Unavailable, "fabric: endpoint %s unregistered", from.Short())
	}
	return nil
}

// ClassBetween derives the link class connecting two registered endpoints:
// same node → Loopback; endpoints sharing a fronting DPU (or one being the
// other's DPU) → DPUHop; same island → Island; same rack → Rack; otherwise
// Core. Unregistered endpoints are treated as remote (Core).
func (f *Fabric) ClassBetween(a, b idgen.NodeID) LinkClass {
	if a == b {
		return Loopback
	}
	f.mu.RLock()
	la, oka := f.locations[a]
	lb, okb := f.locations[b]
	f.mu.RUnlock()
	if !oka || !okb {
		return Core
	}
	if (!la.DPU.IsNil() && (la.DPU == b || la.DPU == lb.DPU)) ||
		(!lb.DPU.IsNil() && lb.DPU == a) {
		return DPUHop
	}
	if la.Island >= 0 && la.Island == lb.Island {
		return Island
	}
	if la.Rack == lb.Rack {
		return Rack
	}
	return Core
}

// cost returns the simulated duration of moving size bytes over class,
// scaled by any slow-link factor installed on the class.
func (f *Fabric) cost(class LinkClass, size int) time.Duration {
	p := f.profiles[class]
	d := p.Latency
	if size > 0 && p.Bandwidth > 0 {
		d += time.Duration(float64(size) / p.Bandwidth * float64(time.Second))
	}
	if bits := f.slow[class].Load(); bits != 0 {
		d = time.Duration(float64(d) * math.Float64frombits(bits))
	}
	return d
}

// SetSlowFactor multiplies one link class's cost by factor (≥ 1 degrades,
// 1 restores). The chaos engine uses it to model congested or flapping
// links without rebuilding the fabric.
func (f *Fabric) SetSlowFactor(class LinkClass, factor float64) {
	if class < 0 || class >= numClasses || factor <= 0 {
		return
	}
	f.slow[class].Store(math.Float64bits(factor))
}

// account records the transfer and delays the caller per TimeScale. Size-only
// callers have no payload to compress, so wire bytes equal logical bytes.
func (f *Fabric) account(class LinkClass, size int) time.Duration {
	return f.accountWire(class, size, size)
}

// accountWire records a transfer whose bytes-on-wire (post-compression) and
// logical bytes (pre-compression) differ. The cost model charges wire bytes —
// that is what crosses the link — while logical bytes keep the data-plane
// accounting (hot-key detection, experiment byte counters) stable across
// compression policies.
func (f *Fabric) accountWire(class LinkClass, wireBytes, logicalBytes int) time.Duration {
	d := f.cost(class, wireBytes)
	s := &f.stats[class]
	s.messages.Add(1)
	s.bytes.Add(int64(wireBytes))
	s.logicalBytes.Add(int64(logicalBytes))
	s.simNanos.Add(int64(d))
	f.wait(d)
	return d
}

// Send charges the fabric for a message of size bytes between two endpoints
// and returns the simulated duration. The caller is delayed by
// TimeScale × duration.
func (f *Fabric) Send(from, to idgen.NodeID, size int) time.Duration {
	return f.account(f.ClassBetween(from, to), size)
}

// SendCtx is Send with trace annotation: when ctx carries an active trace,
// the transfer is recorded as a span whose kind names the link class
// (dpu-hop, durable-bounce, or xfer with a link attribute) and whose Sim
// field carries the deterministic cost-model duration.
//
// Unlike Send, SendCtx has an error path: a message addressed to (or from)
// an endpoint that has been Unregistered — crashed, decommissioned — fails
// with a typed skaderr.Unavailable instead of being silently charged as a
// remote transfer that never arrives.
func (f *Fabric) SendCtx(ctx context.Context, from, to idgen.NodeID, size int) (time.Duration, error) {
	if err := f.endpointErr(from, to); err != nil {
		return 0, err
	}
	class := f.ClassBetween(from, to)
	_, sp := trace.Start(ctx, spanKindFor(class), from)
	d := f.account(class, size)
	if sp != nil {
		sp.SetSim(d)
		sp.SetAttr("link", class.String())
		sp.End()
	}
	return d, nil
}

// TransferClass charges an explicit link class; used for paths that are not
// endpoint-to-endpoint (e.g. durable-storage puts).
func (f *Fabric) TransferClass(class LinkClass, size int) time.Duration {
	if class < 0 || class >= numClasses {
		class = Core
	}
	return f.account(class, size)
}

// ChunkBytes returns the chunk size TransferChunked splits transfers into.
func (f *Fabric) ChunkBytes() int { return f.chunkBytes }

// Chunks returns the number of chunks TransferChunked would split a
// transfer of size bytes into (at least 1).
func (f *Fabric) Chunks(size int) int {
	if size <= f.chunkBytes {
		return 1
	}
	return (size + f.chunkBytes - 1) / f.chunkBytes
}

// TransferChunked moves size bytes between two endpoints as a pipelined
// stream of ChunkBytes-sized chunks. The chunks ride the link back to
// back, so the whole transfer pays one link latency plus the bandwidth
// cost — not one latency per chunk — while the accounting still records
// every chunk as a message. Compared to a single Send of the same size
// the deterministic cost is identical; the difference is real-time
// behaviour under TimeScale > 0: the caller's delay is sliced per chunk,
// so a large move can be overlapped with (and, via the Ctx variant,
// cancelled under) other work instead of stalling whole-object.
func (f *Fabric) TransferChunked(from, to idgen.NodeID, size int) time.Duration {
	return f.transferChunked(context.Background(), f.ClassBetween(from, to), size)
}

// TransferChunkedCtx is TransferChunked with trace annotation and
// cancellation: when ctx is cancelled mid-transfer the remaining chunk
// delays are skipped (the accounting for the full transfer has already
// been charged — bytes in flight are not unsent).
//
// Like SendCtx it has an error path: if either endpoint has been
// Unregistered the transfer fails with skaderr.Unavailable — up front, or
// at the next chunk boundary when the endpoint departs mid-transfer.
func (f *Fabric) TransferChunkedCtx(ctx context.Context, from, to idgen.NodeID, size int) (time.Duration, error) {
	if err := f.endpointErr(from, to); err != nil {
		return 0, err
	}
	class := f.ClassBetween(from, to)
	_, sp := trace.Start(ctx, spanKindFor(class), from)
	d, err := f.transferChunkedEndpoints(ctx, from, to, class, size, size)
	if sp != nil {
		sp.SetSim(d)
		sp.SetAttr("link", class.String())
		sp.SetAttr("chunks", fmt.Sprint(f.Chunks(size)))
		sp.End()
	}
	return d, err
}

// TransferData is the data-aware TransferChunked: given the actual payload
// (not just its length) the fabric applies the link class's compression
// policy, charges bytes-on-wire for cost, and records both wire and logical
// bytes. This is the bulk-move entry point for the zero-copy columnar path.
func (f *Fabric) TransferData(from, to idgen.NodeID, data []byte) time.Duration {
	class := f.ClassBetween(from, to)
	d, _ := f.transferChunkedEndpoints(context.Background(), idgen.Nil, idgen.Nil, class, f.wireSize(class, data), len(data))
	return d
}

// TransferDataCtx is TransferData with trace annotation, cancellation, and
// endpoint liveness (see TransferChunkedCtx). The trace span carries both a
// wire and a logical byte count so compressed links are visible in traces.
func (f *Fabric) TransferDataCtx(ctx context.Context, from, to idgen.NodeID, data []byte) (time.Duration, error) {
	if err := f.endpointErr(from, to); err != nil {
		return 0, err
	}
	class := f.ClassBetween(from, to)
	wireBytes := f.wireSize(class, data)
	_, sp := trace.Start(ctx, spanKindFor(class), from)
	d, err := f.transferChunkedEndpoints(ctx, from, to, class, wireBytes, len(data))
	if sp != nil {
		sp.SetSim(d)
		sp.SetAttr("link", class.String())
		sp.SetAttr("chunks", fmt.Sprint(f.Chunks(wireBytes)))
		if wireBytes != len(data) {
			sp.SetAttr("wire", fmt.Sprint(wireBytes))
			sp.SetAttr("logical", fmt.Sprint(len(data)))
		}
		sp.End()
	}
	return d, err
}

// TransferDataClass is TransferData over an explicit link class; used for
// paths that are not endpoint-to-endpoint (e.g. durable-storage puts).
func (f *Fabric) TransferDataClass(class LinkClass, data []byte) time.Duration {
	if class < 0 || class >= numClasses {
		class = Core
	}
	d, _ := f.transferChunkedEndpoints(context.Background(), idgen.Nil, idgen.Nil, class, f.wireSize(class, data), len(data))
	return d
}

// TransferMessageCtx charges a single (non-chunked) message whose payload is
// in hand, with overhead bytes of headers riding along uncompressed. It is
// SendCtx for callers that can hand the fabric real bytes: the data-plane
// transports use it so per-link compression shows up in their cost model
// without changing the sizes they report to the chaos interposer.
func (f *Fabric) TransferMessageCtx(ctx context.Context, from, to idgen.NodeID, payload []byte, overhead int) (time.Duration, error) {
	if err := f.endpointErr(from, to); err != nil {
		return 0, err
	}
	class := f.ClassBetween(from, to)
	wireBytes := f.wireSize(class, payload) + overhead
	logical := len(payload) + overhead
	_, sp := trace.Start(ctx, spanKindFor(class), from)
	d := f.accountWire(class, wireBytes, logical)
	if sp != nil {
		sp.SetSim(d)
		sp.SetAttr("link", class.String())
		if wireBytes != logical {
			sp.SetAttr("wire", fmt.Sprint(wireBytes))
			sp.SetAttr("logical", fmt.Sprint(logical))
		}
		sp.End()
	}
	return d, nil
}

// transferChunked accounts a pipelined chunked transfer and delays the
// caller in per-chunk slices.
func (f *Fabric) transferChunked(ctx context.Context, class LinkClass, size int) time.Duration {
	d, _ := f.transferChunkedEndpoints(ctx, idgen.Nil, idgen.Nil, class, size, size)
	return d
}

// transferChunkedEndpoints is transferChunked with endpoint liveness checks
// between chunks: a transfer whose source or destination is Unregistered
// mid-flight aborts with skaderr.Unavailable. Nil endpoints skip the check
// (class-only transfers have no registration to lose). wireBytes is what
// crosses the link (post-compression) and drives both cost and chunk count;
// logicalBytes is the pre-compression payload size.
func (f *Fabric) transferChunkedEndpoints(ctx context.Context, from, to idgen.NodeID, class LinkClass, wireBytes, logicalBytes int) (time.Duration, error) {
	chunks := f.Chunks(wireBytes)
	d := f.cost(class, wireBytes) // pipelined: one latency + size/bandwidth
	s := &f.stats[class]
	s.messages.Add(int64(chunks))
	s.bytes.Add(int64(wireBytes))
	s.logicalBytes.Add(int64(logicalBytes))
	s.simNanos.Add(int64(d))
	if f.timeScale <= 0 || d <= 0 {
		return d, nil
	}
	checked := !from.IsNil() || !to.IsNil()
	// Slice the delay across chunks so concurrent transfers interleave at
	// chunk granularity and cancellation takes effect between chunks.
	slice := d / time.Duration(chunks)
	rem := d
	for i := 0; i < chunks && rem > 0; i++ {
		if ctx != nil && ctx.Err() != nil {
			return d, nil
		}
		if checked {
			if err := f.endpointErr(from, to); err != nil {
				// The endpoint vanished mid-transfer. The full transfer was
				// already charged (bytes in flight are not unsent); the error
				// tells the caller the data did not land.
				return d - rem, err
			}
		}
		w := slice
		if i == chunks-1 || w > rem {
			w = rem
		}
		f.wait(w)
		rem -= w
	}
	return d, nil
}

// spanKindFor maps a link class to its trace span kind. DPU hops and
// durable bounces get first-class kinds because the paper's arguments
// (Gen-1 overhead, durable-store bouncing) hinge on exactly those paths.
func spanKindFor(class LinkClass) string {
	switch class {
	case DPUHop:
		return trace.KindDPUHop
	case Durable:
		return trace.KindDurable
	default:
		return trace.KindXfer
	}
}

// Cost returns the simulated duration of a transfer without performing it.
func (f *Fabric) Cost(from, to idgen.NodeID, size int) time.Duration {
	return f.cost(f.ClassBetween(from, to), size)
}

// wait delays the caller by d scaled by TimeScale. Durations below 200 µs
// are spin-waited because OS timers cannot sleep that precisely, and the
// short-op experiments depend on microsecond-scale delays being honoured.
func (f *Fabric) wait(d time.Duration) {
	if f.timeScale <= 0 || d <= 0 {
		return
	}
	d = time.Duration(float64(d) * f.timeScale)
	if d < 200*time.Microsecond {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			runtime.Gosched()
		}
		return
	}
	time.Sleep(d)
}

// Stats is a snapshot of one link class's accounting. Bytes is
// bytes-on-wire (post-compression); LogicalBytes is the pre-compression
// payload size. On uncompressed classes the two are equal.
type Stats struct {
	Messages     int64
	Bytes        int64
	LogicalBytes int64
	SimTime      time.Duration
}

// ClassStats returns the accounting snapshot for one link class.
func (f *Fabric) ClassStats(class LinkClass) Stats {
	if class < 0 || class >= numClasses {
		return Stats{}
	}
	s := &f.stats[class]
	return Stats{
		Messages:     s.messages.Load(),
		Bytes:        s.bytes.Load(),
		LogicalBytes: s.logicalBytes.Load(),
		SimTime:      time.Duration(s.simNanos.Load()),
	}
}

// TotalStats returns accounting summed over all link classes.
func (f *Fabric) TotalStats() Stats {
	var total Stats
	for c := LinkClass(0); c < numClasses; c++ {
		s := f.ClassStats(c)
		total.Messages += s.Messages
		total.Bytes += s.Bytes
		total.LogicalBytes += s.LogicalBytes
		total.SimTime += s.SimTime
	}
	return total
}

// ResetStats zeroes all accounting; experiments call this between runs.
func (f *Fabric) ResetStats() {
	for c := range f.stats {
		f.stats[c].messages.Store(0)
		f.stats[c].bytes.Store(0)
		f.stats[c].logicalBytes.Store(0)
		f.stats[c].simNanos.Store(0)
	}
}
