// Package fabric models the data-center interconnect of a disaggregated
// cluster: which link class connects two endpoints, what moving bytes
// between them costs, and how many bytes/messages flowed where.
//
// The paper's architectural arguments (Gen-1 vs Gen-2 raylet placement,
// pull vs push future resolution, durable-storage bouncing) are arguments
// about message paths and their costs. The fabric makes those costs explicit
// and measurable through one call, Move: every transfer both accumulates
// deterministic simulated-time counters and (optionally) delays the caller
// by the scaled simulated duration so that concurrency effects (overlap,
// stalls) are real.
package fabric

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
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
	// Durable marks cloud durable storage: every path to or from it is the
	// Durable link class, wherever the other endpoint sits.
	Durable bool
}

// ChunkBytes is the unit a Move is sliced into and counted by: one message
// per chunk of bytes on the wire. 256 KiB matches the sweet spot of
// RDMA/NVLink bulk moves: large enough to amortize per-message headers,
// small enough that a transfer can be overlapped and cancelled mid-flight.
const ChunkBytes = 256 << 10

// compressMinBytes is the smallest payload worth compressing. Below ~4 KiB
// the per-block overhead and codec latency outweigh the wire savings on
// every modelled link.
const compressMinBytes = 4 << 10

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
	// Compress is the per-link-class compression policy Move applies to
	// payloads; nil uses DefaultCompression. Pass NoCompression() to ship
	// raw everywhere.
	Compress map[LinkClass]bool
}

// classStats holds per-class accounting. All fields are atomics so the hot
// path takes no locks. bytes is bytes-on-wire (post-compression);
// logicalBytes is the pre-compression size. The two differ only on
// compressed link classes.
type classStats struct {
	messages     atomic.Int64
	bytes        atomic.Int64
	logicalBytes atomic.Int64
	simNanos     atomic.Int64
}

// Fabric is the cluster interconnect. It is safe for concurrent use.
type Fabric struct {
	timeScale float64
	compress  [numClasses]bool
	profiles  [numClasses]LinkProfile
	stats     [numClasses]classStats
	// slow holds per-class float64 multipliers (as bits) applied to link
	// costs; 0 means unset (×1). The chaos engine uses it to degrade link
	// classes without rebuilding the fabric.
	slow [numClasses]atomic.Uint64

	mu        sync.RWMutex
	locations map[idgen.NodeID]Location
	// departed marks endpoints that were explicitly Unregistered (crash,
	// decommission). Unlike never-registered endpoints — which are simply
	// treated as remote — moves touching a departed endpoint fail with a
	// typed skaderr.Unavailable.
	departed map[idgen.NodeID]bool
}

// New returns a Fabric with the given configuration.
func New(cfg Config) *Fabric {
	f := &Fabric{
		timeScale: cfg.TimeScale,
		locations: make(map[idgen.NodeID]Location),
		departed:  make(map[idgen.NodeID]bool),
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
	if !f.compress[class] || len(data) < compressMinBytes {
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

// Unregister removes an endpoint. Subsequent moves touching it fail with
// skaderr.Unavailable — including moves already in flight, which abort at
// the next chunk boundary.
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

// departedErr returns the typed failure for a move touching a departed
// endpoint, or nil. The caller holds f.mu.
func (f *Fabric) departedErr(from, to idgen.NodeID) error {
	if f.departed[to] {
		return skaderr.New(skaderr.Unavailable, "fabric: endpoint %s unregistered", to.Short())
	}
	if f.departed[from] {
		return skaderr.New(skaderr.Unavailable, "fabric: endpoint %s unregistered", from.Short())
	}
	return nil
}

// ClassBetween derives the link class connecting two endpoints: same node
// → Loopback; either endpoint durable storage → Durable; endpoints sharing
// a fronting DPU (or one being the other's DPU) → DPUHop; same island →
// Island; same rack → Rack; otherwise Core. Unregistered endpoints are
// treated as remote (Core).
func (f *Fabric) ClassBetween(a, b idgen.NodeID) LinkClass {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.classLocked(a, b)
}

// classLocked is ClassBetween with f.mu held.
func (f *Fabric) classLocked(a, b idgen.NodeID) LinkClass {
	if a == b {
		return Loopback
	}
	la, oka := f.locations[a]
	lb, okb := f.locations[b]
	switch {
	case la.Durable || lb.Durable:
		return Durable
	case !oka || !okb:
		return Core
	case (!la.DPU.IsNil() && (la.DPU == b || la.DPU == lb.DPU)) ||
		(!lb.DPU.IsNil() && lb.DPU == a):
		return DPUHop
	case la.Island >= 0 && la.Island == lb.Island:
		return Island
	case la.Rack == lb.Rack:
		return Rack
	}
	return Core
}

// cost returns the simulated duration of moving size bytes over class,
// scaled by any slow-link factor installed on the class. A move's chunks
// ride the link back to back, so it pays one latency plus the bandwidth
// cost — not one latency per chunk.
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

// Move charges the fabric for moving payload plus raw bytes from one
// endpoint to another and returns the simulated duration.
//
//   - payload is compressed when the link class's policy says so; raw
//     bytes (headers, or the whole message for a size-only caller that
//     passes a nil payload) ride uncompressed.
//   - The message count is the number of ChunkBytes chunks of the bytes on
//     the wire (at least one); the cost is one latency plus the bandwidth
//     cost of those bytes.
//   - An endpoint that was Unregistered fails the move with a typed
//     skaderr.Unavailable: up front with nothing charged, or at a chunk
//     boundary when it departs mid-move (the full move was already charged:
//     bytes in flight are not unsent; the error says they did not land).
//   - Under TimeScale > 0 the caller is delayed in per-chunk slices, so
//     concurrent moves interleave at chunk granularity; a cancelled ctx
//     skips what is left of the delay.
//   - When ctx carries a trace the move is recorded as a span whose kind
//     names the link class (dpu-hop, durable-bounce, or xfer) and whose Sim
//     field carries the cost-model duration.
func (f *Fabric) Move(ctx context.Context, from, to idgen.NodeID, payload []byte, raw int) (time.Duration, error) {
	f.mu.RLock()
	err := f.departedErr(from, to)
	class := f.classLocked(from, to)
	f.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	wireBytes := f.wireSize(class, payload) + raw
	logical := len(payload) + raw
	chunks := 1
	if wireBytes > ChunkBytes {
		chunks = (wireBytes + ChunkBytes - 1) / ChunkBytes
	}
	d := f.cost(class, wireBytes)
	s := &f.stats[class]
	s.messages.Add(int64(chunks))
	s.bytes.Add(int64(wireBytes))
	s.logicalBytes.Add(int64(logical))
	s.simNanos.Add(int64(d))
	_, sp := trace.Start(ctx, spanKindFor(class), from)
	d, err = f.pace(ctx, from, to, d, chunks)
	if sp != nil {
		sp.SetSim(d)
		sp.SetAttr("link", class.String())
		if chunks > 1 {
			sp.SetAttr("chunks", strconv.Itoa(chunks))
		}
		if wireBytes != logical {
			sp.SetAttr("wire", strconv.Itoa(wireBytes))
			sp.SetAttr("logical", strconv.Itoa(logical))
		}
		sp.End()
	}
	return d, err
}

// pace delays the caller by d in per-chunk slices. It returns d, or the
// share of d already elapsed and the typed failure when an endpoint departs
// at a chunk boundary.
func (f *Fabric) pace(ctx context.Context, from, to idgen.NodeID, d time.Duration, chunks int) (time.Duration, error) {
	if f.timeScale <= 0 || d <= 0 {
		return d, nil
	}
	slice := d / time.Duration(chunks)
	rem := d
	for i := 0; i < chunks && rem > 0; i++ {
		if ctx.Err() != nil {
			return d, nil
		}
		if i > 0 {
			f.mu.RLock()
			err := f.departedErr(from, to)
			f.mu.RUnlock()
			if err != nil {
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

// SortNearest orders nodes cheapest-first as sources for a move to `to`:
// by the cost of a zero-byte message (link latency, slow factors
// included), ties broken by ID so every caller picks the same holder.
func (f *Fabric) SortNearest(to idgen.NodeID, nodes []idgen.NodeID) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	slices.SortFunc(nodes, func(a, b idgen.NodeID) int {
		if c := cmp.Compare(f.cost(f.classLocked(a, to), 0), f.cost(f.classLocked(b, to), 0)); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq(), b.Seq())
	})
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

// wait delays the caller by d scaled by TimeScale. Durations below 200 µs
// are spin-waited because OS timers cannot sleep that precisely, and the
// short-op experiments depend on microsecond-scale delays being honoured.
func (f *Fabric) wait(d time.Duration) {
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
// size. On uncompressed classes the two are equal.
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
