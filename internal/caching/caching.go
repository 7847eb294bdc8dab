// Package caching implements Skadi's caching layer — the bedrock of the
// stateful serverless runtime's data plane (§1, §2.1). It exposes a simple
// KV API over every memory tier in the cluster: host DRAM on servers, HBM
// on heterogeneous devices, and disaggregated memory — while hiding data
// location and movement from its users. It supports three reliability
// modes: none (lineage handles failures), replication, and Reed–Solomon
// erasure coding; the lineage-vs-reliable-cache trade-off of §2.1 is
// exercised by experiment E6.
//
// The layer keeps no table of its own: each tier is the index of what it
// holds. A node holds a full copy exactly when its store contains the key;
// an object is in disaggregated memory exactly when the blade holds it, with
// its format beside its bytes; and shard i of an erasure-coded object is
// wherever a store (or, once spilled, the blade) holds the key
// shardKey(id, i). Every read, delete and recoverability test asks them.
//
// The data plane is parallel end to end (E15): redundancy writes fan out
// concurrently over a bounded worker pool, remote hits stream over the
// fabric in pipelined chunks, and concurrent fetches of one hot key
// coalesce into a single transfer.
package caching

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"skadi/internal/dsm"
	"skadi/internal/erasure"
	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
	"skadi/internal/skaderr"
	"skadi/internal/trace"
)

// Tier classifies a store's position in the memory hierarchy.
type Tier int

// Tiers, fastest first.
const (
	// HostDRAM is a server's local memory.
	HostDRAM Tier = iota
	// DeviceHBM is on-device memory (GPU/FPGA HBM).
	DeviceHBM
	// DisaggMem is pooled disaggregated memory reached over the fabric.
	DisaggMem
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case HostDRAM:
		return "dram"
	case DeviceHBM:
		return "hbm"
	case DisaggMem:
		return "disagg"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Mode selects the reliability mechanism.
type Mode int

// Reliability modes.
const (
	// ModeNone stores one copy; failures are handled by lineage.
	ModeNone Mode = iota
	// ModeReplicate stores Replicas full copies on distinct nodes.
	ModeReplicate
	// ModeEC stores the primary copy plus ECData+ECParity erasure-coded
	// shards spread across other nodes (Carbink-style far-memory EC).
	ModeEC
)

// Errors returned by the layer.
var (
	// ErrNotFound reports a key with no surviving copy or reconstruction.
	ErrNotFound = errors.New("caching: key not found")
	// ErrNoStore reports an operation from a node with no registered store.
	ErrNoStore = errors.New("caching: node has no registered store")
)

// defaultFanOut bounds the worker pool for parallel redundancy writes and
// shard fetches when Config.FanOut is zero.
const defaultFanOut = 8

// shardTrailer is the size of the object length each EC shard carries
// after its bytes, so k shards alone rebuild the object.
const shardTrailer = 8

// Config configures a Layer.
type Config struct {
	Mode Mode
	// Replicas is the total copy count for ModeReplicate (≥ 2).
	Replicas int
	// ECData/ECParity are the Reed–Solomon parameters for ModeEC.
	ECData, ECParity int
	// FanOut bounds the worker pool that issues replica/shard transfers
	// concurrently. 0 means defaultFanOut; 1 serializes the writes (the
	// pre-parallel behaviour, kept measurable for E15).
	FanOut int
}

// Stats counts layer activity.
type Stats struct {
	LocalHits        int64
	RemoteHits       int64
	DSMHits          int64
	Misses           int64
	BytesTransferred int64
	Reconstructions  int64
	ReplicaWrites    int64
	ShardWrites      int64
	// CoalescedHits counts Gets that joined another in-flight fetch of the
	// same key to the same node instead of crossing the fabric themselves.
	CoalescedHits int64
	// DegradedPlacements counts redundancy writes that could not spread
	// over as many distinct nodes as requested (cluster too small, or a
	// target dropped mid-write with no substitute) — the k+m or R-copy
	// guarantee is weakened until the data is re-written.
	DegradedPlacements int64
}

// counters is the layer's live stats; all fields are atomics so the hot
// paths never take a lock to count.
type counters struct {
	localHits          atomic.Int64
	remoteHits         atomic.Int64
	dsmHits            atomic.Int64
	misses             atomic.Int64
	bytesTransferred   atomic.Int64
	reconstructions    atomic.Int64
	replicaWrites      atomic.Int64
	shardWrites        atomic.Int64
	coalescedHits      atomic.Int64
	degradedPlacements atomic.Int64
}

type storeInfo struct {
	store *objectstore.Store
	tier  Tier
}

// flightKey identifies one in-flight non-local fetch: hot-key coalescing is
// per destination node, since distinct readers' nodes each genuinely need
// the bytes moved to them.
type flightKey struct {
	node idgen.NodeID
	id   idgen.ObjectID
}

// flight is one in-flight fetch that concurrent readers share.
type flight struct {
	done   chan struct{}
	data   []byte
	format string
	tier   string
	src    string
	err    error
}

// Quota is the consumer-side interface to per-tenant cache-byte quotas.
// The tenancy controller implements it; the caching layer stays free of a
// tenancy dependency. Reserve is charged once per logical object on the
// put path — before any bytes land — with the submitting tenant carried on
// ctx; replicas and EC shards of the same object are not re-charged.
// Release returns the bytes when the object is deleted.
type Quota interface {
	Reserve(ctx context.Context, id idgen.ObjectID, n int64) error
	Release(id idgen.ObjectID)
}

// Layer is the cluster-wide caching layer. It is safe for concurrent use.
type Layer struct {
	fabric *fabric.Fabric
	cfg    Config
	coder  *erasure.Coder

	quotaMu sync.RWMutex
	quota   Quota

	// storeMu guards the store table and placement cursor. It is an
	// RWMutex so the data plane's store lookups never contend with each
	// other — only AddStore/DropNode take it exclusively. A read hold may
	// span store Contains/Keeps/Delete, never a store Put: a Put may spill,
	// and the spill re-enters the layer.
	storeMu sync.RWMutex
	stores  map[idgen.NodeID]*storeInfo
	order   []idgen.NodeID // registration order for deterministic placement
	pool    *dsm.Pool
	rr      int // round-robin cursor for shard/replica placement

	flightMu sync.Mutex
	flights  map[flightKey]*flight

	stats counters
}

// NewLayer returns a caching layer over the given fabric.
func NewLayer(f *fabric.Fabric, cfg Config) (*Layer, error) {
	l := &Layer{
		fabric:  f,
		cfg:     cfg,
		stores:  make(map[idgen.NodeID]*storeInfo),
		flights: make(map[flightKey]*flight),
	}
	if cfg.Mode == ModeReplicate && cfg.Replicas < 2 {
		return nil, fmt.Errorf("caching: ModeReplicate needs Replicas >= 2, got %d", cfg.Replicas)
	}
	if cfg.Mode == ModeEC {
		coder, err := erasure.New(cfg.ECData, cfg.ECParity)
		if err != nil {
			return nil, err
		}
		l.coder = coder
	}
	return l, nil
}

// SetQuota installs the per-tenant cache-byte quota enforced on the put
// path. A nil quota (the default) disables enforcement.
func (l *Layer) SetQuota(q Quota) {
	l.quotaMu.Lock()
	l.quota = q
	l.quotaMu.Unlock()
}

func (l *Layer) getQuota() Quota {
	l.quotaMu.RLock()
	defer l.quotaMu.RUnlock()
	return l.quota
}

// shardKey is the store key of shard i of object id: id with the counter
// half set to 1<<63 | seq<<8 | i. idgen.Next counters stay below 2^63, so
// no shard key is an object's ID, and k+m <= 256 gives each shard of an
// object its own key.
func shardKey(id idgen.ObjectID, i int) idgen.ObjectID {
	key := id
	binary.BigEndian.PutUint64(key[8:], 1<<63|id.Seq()<<8|uint64(i))
	return key
}

// shardCount returns k+m, the number of shards each object is coded into.
func (l *Layer) shardCount() int {
	return l.coder.DataShards() + l.coder.ParityShards()
}

// fanOut returns the bounded worker-pool width for parallel writes.
func (l *Layer) fanOut() int {
	if l.cfg.FanOut > 0 {
		return l.cfg.FanOut
	}
	return defaultFanOut
}

// store returns the registered store info for a node, or nil.
func (l *Layer) store(node idgen.NodeID) *storeInfo {
	l.storeMu.RLock()
	si := l.stores[node]
	l.storeMu.RUnlock()
	return si
}

// dsmPool returns the attached DSM pool, or nil.
func (l *Layer) dsmPool() *dsm.Pool {
	l.storeMu.RLock()
	p := l.pool
	l.storeMu.RUnlock()
	return p
}

// AddStore registers a node's object store at the given tier and wires its
// eviction path into the layer: an evicted last copy spills to
// disaggregated memory when a pool is attached, or is dropped otherwise.
func (l *Layer) AddStore(node idgen.NodeID, tier Tier, store *objectstore.Store) {
	store.SetSpill(func(id idgen.ObjectID, data []byte, format string) error {
		return l.onEvict(node, id, data, format)
	})
	l.storeMu.Lock()
	defer l.storeMu.Unlock()
	if _, ok := l.stores[node]; !ok {
		l.order = append(l.order, node)
	}
	l.stores[node] = &storeInfo{store: store, tier: tier}
}

// onEvict handles one eviction from a node's store: if this was the last
// full copy and a DSM pool exists, demote the bytes, with their format, to
// disaggregated memory instead of losing them. A copy another store is
// evicting at the same moment does not count as surviving (Keeps), so two
// stores dropping the last two copies at once both demote rather than each
// leaving it to the other.
func (l *Layer) onEvict(node idgen.NodeID, id idgen.ObjectID, data []byte, format string) error {
	pool := l.dsmPool()
	if pool == nil || l.heldOutside(node, id, (*objectstore.Store).Keeps) {
		return nil // nothing to demote to, or another copy survives
	}
	// ErrExists: an eviction racing this one already demoted the object.
	if err := pool.Write(node, id, data, format); err != nil && !errors.Is(err, dsm.ErrExists) {
		return err
	}
	return nil
}

// SetDSM attaches the disaggregated-memory pool as the coldest tier.
func (l *Layer) SetDSM(pool *dsm.Pool) {
	l.storeMu.Lock()
	l.pool = pool
	l.storeMu.Unlock()
}

// heldOutside reports whether the blade or a store other than node's has
// id, a store as judged by has: (*objectstore.Store).Contains, or Keeps to
// leave out a copy its store is evicting.
func (l *Layer) heldOutside(node idgen.NodeID, id idgen.ObjectID, has func(*objectstore.Store, idgen.ObjectID) bool) bool {
	l.storeMu.RLock()
	defer l.storeMu.RUnlock()
	for n, si := range l.stores {
		if n != node && has(si.store, id) {
			return true
		}
	}
	return l.pool != nil && l.pool.Contains(id)
}

// copies returns the nodes other than except whose store holds a full copy
// of id, in registration order.
func (l *Layer) copies(id idgen.ObjectID, except idgen.NodeID) []idgen.NodeID {
	l.storeMu.RLock()
	defer l.storeMu.RUnlock()
	var out []idgen.NodeID
	for _, n := range l.order {
		if n != except && l.stores[n].store.Contains(id) {
			out = append(out, n)
		}
	}
	return out
}

// Store returns the raw object store registered for a node, or nil. Raylets
// use it for spill wiring.
func (l *Layer) Store(node idgen.NodeID) *objectstore.Store {
	if si := l.store(node); si != nil {
		return si.store
	}
	return nil
}

// Put stores a value under key id from the given node. The primary copy
// lands in the node's own store (falling back to disaggregated memory on
// OOM); replication/EC modes add redundancy on other nodes.
func (l *Layer) Put(from idgen.NodeID, id idgen.ObjectID, data []byte, format string) error {
	return l.PutCtx(context.Background(), from, id, data, format)
}

// PutCtx is Put with trace annotation: the write is recorded as a
// cache-put span carrying the tier the primary copy landed on.
func (l *Layer) PutCtx(ctx context.Context, from idgen.NodeID, id idgen.ObjectID, data []byte, format string) error {
	ctx, sp := trace.Start(ctx, trace.KindCachePut, from)
	tier, err := l.putCtx(ctx, from, id, data, format)
	if sp != nil {
		sp.SetAttr("tier", tier)
		if err != nil && !errors.Is(err, objectstore.ErrExists) {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return err
}

// putCtx performs the put and reports the tier that took the primary copy.
func (l *Layer) putCtx(ctx context.Context, from idgen.NodeID, id idgen.ObjectID, data []byte, format string) (string, error) {
	si := l.store(from)
	pool := l.dsmPool()
	if si == nil {
		// The node crashed (DropNode) under a task still writing to it.
		return "", skaderr.Mark(skaderr.Unavailable, fmt.Errorf("%w: %s", ErrNoStore, from.Short()))
	}

	// Tenant quota gate: the logical bytes are charged before any copy
	// lands, so an over-quota tenant is rejected (or evicts its own oldest
	// objects) without touching stores. Replicas/shards are not re-charged.
	quota := l.getQuota()
	if quota != nil {
		if err := quota.Reserve(ctx, id, int64(len(data))); err != nil {
			return "", err
		}
	}

	// Primary copy: local store, falling back to the DSM tier on pressure.
	tier := si.tier.String()
	err := si.store.Put(id, data, format)
	switch {
	case err == nil:
	case errors.Is(err, objectstore.ErrExists):
		return tier, err
	case pool != nil:
		if derr := pool.Write(from, id, data, format); derr != nil {
			if quota != nil {
				quota.Release(id)
			}
			return tier, fmt.Errorf("caching: primary put failed: %v; dsm: %w", err, derr)
		}
		tier = DisaggMem.String()
	default:
		if quota != nil {
			quota.Release(id)
		}
		return tier, err
	}

	switch l.cfg.Mode {
	case ModeReplicate:
		return tier, l.replicate(ctx, from, id, data, format)
	case ModeEC:
		return tier, l.encodeShards(ctx, from, id, data, format)
	}
	return tier, nil
}

// forEachParallel runs fn(i) for i in [0, n) on a worker pool bounded by
// FanOut, returning the first error (the remaining work still runs; its
// successful effects are kept — first-error-wins, successes recorded).
func (l *Layer) forEachParallel(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 || l.fanOut() == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	sem := make(chan struct{}, l.fanOut())
	for i := 0; i < n; i++ {
		sem <- struct{}{} // bound the pool; blocks the spawner, not a worker
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// replicate writes Replicas-1 extra copies on other nodes, fanning the
// transfers out concurrently. With fabric delays on, the put pays
// ~max(replica cost) instead of the sum (E15).
func (l *Layer) replicate(ctx context.Context, from idgen.NodeID, id idgen.ObjectID, data []byte, format string) error {
	want := l.cfg.Replicas - 1
	targets := l.pickNodes(from, want)
	if len(targets) < want {
		l.stats.degradedPlacements.Add(1)
	}
	return l.forEachParallel(len(targets), func(i int) error {
		return l.writeReplica(ctx, from, targets[i], id, data, format)
	})
}

// writeReplica moves one replica to node's store. A target dropped since
// placement (concurrent DropNode) is re-picked rather than dereferenced —
// the regression the serial path crashed on.
func (l *Layer) writeReplica(ctx context.Context, from, node idgen.NodeID, id idgen.ObjectID, data []byte, format string) error {
	si := l.store(node)
	if si == nil {
		var ok bool
		node, si, ok = l.repick(from, id)
		if !ok {
			l.stats.degradedPlacements.Add(1)
			return nil // degrade: fewer copies, counted, not a crash
		}
	}
	if _, err := l.fabric.Move(ctx, from, node, data, 0); err != nil {
		// The target left the fabric while the replica was in flight:
		// degrade (fewer copies, counted), same as a dropped store.
		l.stats.degradedPlacements.Add(1)
		return nil
	}
	if err := si.store.Put(id, data, format); err != nil && !errors.Is(err, objectstore.ErrExists) {
		return fmt.Errorf("caching: replica on %s: %w", node.Short(), err)
	}
	if l.store(node) != si {
		// The node was dropped (or came back with a fresh store) while the
		// replica was in flight: the copy sits in a store no read reaches.
		l.stats.degradedPlacements.Add(1)
		return nil
	}
	l.stats.replicaWrites.Add(1)
	l.stats.bytesTransferred.Add(int64(len(data)))
	return nil
}

// repick finds a substitute replica target: any registered node that is
// neither the writer nor already holding id.
func (l *Layer) repick(exclude idgen.NodeID, id idgen.ObjectID) (idgen.NodeID, *storeInfo, bool) {
	l.storeMu.RLock()
	defer l.storeMu.RUnlock()
	for _, node := range l.order {
		if si := l.stores[node]; node != exclude && !si.store.Contains(id) {
			return node, si, true
		}
	}
	return idgen.Nil, nil, false
}

// encodeShards writes k+m erasure shards across other nodes, fanning the
// shard transfers out concurrently. Shard i goes under shardKey(id, i) with
// the object's format, and its bytes end in the object's length, so the
// shard describes itself. Placement is node-disjoint whenever the cluster
// has enough nodes; a shortfall (shards forced to share nodes, weakening
// the k+m guarantee) is surfaced via DegradedPlacements.
func (l *Layer) encodeShards(ctx context.Context, from idgen.NodeID, id idgen.ObjectID, data []byte, format string) error {
	shards := l.coder.Split(data)
	if err := l.coder.Encode(shards); err != nil {
		return err
	}
	n := len(shards)
	targets := l.pickNodes(from, n)
	if len(targets) == 0 {
		return fmt.Errorf("caching: no nodes available for EC shards")
	}
	if len(targets) < n {
		l.stats.degradedPlacements.Add(1)
	}
	return l.forEachParallel(n, func(i int) error {
		node := targets[i%len(targets)]
		si := l.store(node)
		if si == nil {
			// Target dropped since placement: substitute another node, or
			// skip the shard (reconstruct tolerates missing shards up to
			// parity).
			var ok bool
			node, si, ok = l.repick(from, id)
			if !ok {
				l.stats.degradedPlacements.Add(1)
				return nil
			}
		}
		shard := binary.BigEndian.AppendUint64(shards[i], uint64(len(data)))
		if _, err := l.fabric.Move(ctx, from, node, shard, 0); err != nil {
			// Target departed mid-encode: skip the shard (parity tolerates
			// missing shards), counted as a degraded placement.
			l.stats.degradedPlacements.Add(1)
			return nil
		}
		err := si.store.Put(shardKey(id, i), shard, format)
		if errors.Is(err, objectstore.ErrExists) {
			return nil // an earlier put of the object left this shard there
		}
		if err != nil {
			return fmt.Errorf("caching: shard %d on %s: %w", i, node.Short(), err)
		}
		l.stats.shardWrites.Add(1)
		l.stats.bytesTransferred.Add(int64(len(shard)))
		return nil
	})
}

// pickNodes returns up to n distinct nodes other than exclude, round-robin
// over the registration order for deterministic yet spread placement. Fewer
// than n are returned when the cluster is too small; callers surface that
// via the DegradedPlacements counter.
func (l *Layer) pickNodes(exclude idgen.NodeID, n int) []idgen.NodeID {
	l.storeMu.Lock()
	defer l.storeMu.Unlock()
	var out []idgen.NodeID
	if len(l.order) == 0 {
		return out
	}
	for i := 0; i < len(l.order) && len(out) < n; i++ {
		node := l.order[(l.rr+i)%len(l.order)]
		if node != exclude {
			out = append(out, node)
		}
	}
	l.rr = (l.rr + 1) % len(l.order)
	return out
}

// Get returns the value for id, reading from the nearest tier: local store,
// a remote replica, disaggregated memory, then EC reconstruction.
func (l *Layer) Get(to idgen.NodeID, id idgen.ObjectID) ([]byte, string, error) {
	return l.GetCtx(context.Background(), to, id)
}

// GetCtx is Get with trace annotation: the read is recorded as a
// cache-get span carrying the tier that served it (dram/hbm/disagg) and
// the source path (local, remote, dsm, ec reconstruction, or coalesced).
func (l *Layer) GetCtx(ctx context.Context, to idgen.NodeID, id idgen.ObjectID) ([]byte, string, error) {
	ctx, sp := trace.Start(ctx, trace.KindCacheGet, to)
	data, format, tier, src, err := l.getCtx(ctx, to, id)
	if sp != nil {
		if tier != "" {
			sp.SetAttr("tier", tier)
		}
		if src != "" {
			sp.SetAttr("src", src)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return data, format, err
}

// getCtx performs the read and reports the serving tier and source path.
// Local hits are served lock-free of the directory; non-local fetches of
// the same key to the same node coalesce into one fabric transfer.
func (l *Layer) getCtx(ctx context.Context, to idgen.NodeID, id idgen.ObjectID) ([]byte, string, string, string, error) {
	si := l.store(to)

	// 1. Local store.
	if si != nil {
		if data, f, err := si.store.Get(id); err == nil {
			l.stats.localHits.Add(1)
			return data, f, si.tier.String(), "local", nil
		}
	}

	// Non-local: singleflight. The first reader becomes the leader and
	// performs the fetch; concurrent readers on the same node share its
	// result — one fabric transfer for a hot key, not N.
	key := flightKey{node: to, id: id}
	l.flightMu.Lock()
	if fl, inFlight := l.flights[key]; inFlight {
		l.flightMu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, "", "", "", ctx.Err()
		}
		if fl.err != nil {
			return nil, "", "", "", fl.err
		}
		l.stats.coalescedHits.Add(1)
		return fl.data, fl.format, fl.tier, "coalesced", nil
	}
	fl := &flight{done: make(chan struct{})}
	l.flights[key] = fl
	l.flightMu.Unlock()

	fl.data, fl.format, fl.tier, fl.src, fl.err = l.fetchMiss(ctx, to, id)

	l.flightMu.Lock()
	delete(l.flights, key)
	l.flightMu.Unlock()
	close(fl.done)
	return fl.data, fl.format, fl.tier, fl.src, fl.err
}

// fetchMiss resolves a local miss: remote replica (cheapest first, streamed
// in pipelined chunks), disaggregated memory, then EC reconstruction.
func (l *Layer) fetchMiss(ctx context.Context, to idgen.NodeID, id idgen.ObjectID) ([]byte, string, string, string, error) {
	// 2. Remote copy: cheapest holder by fabric cost first, falling through
	// to the next if its copy goes meanwhile.
	locs := l.copies(id, to)
	l.fabric.SortNearest(to, locs)
	for _, node := range locs {
		remote := l.store(node)
		if remote == nil {
			continue
		}
		data, f, err := remote.store.Get(id)
		if err != nil {
			continue
		}
		if _, err := l.fabric.Move(ctx, node, to, data, 0); err != nil {
			continue // source vanished mid-transfer: try the next location
		}
		l.stats.remoteHits.Add(1)
		l.stats.bytesTransferred.Add(int64(len(data)))
		return data, f, remote.tier.String(), "remote", nil
	}

	// 3. Disaggregated memory: the blade keeps the format with the bytes.
	if pool := l.dsmPool(); pool != nil {
		if data, format, err := pool.Read(to, id); err == nil {
			l.stats.dsmHits.Add(1)
			l.stats.bytesTransferred.Add(int64(len(data)))
			return data, format, DisaggMem.String(), "dsm", nil
		}
	}

	// 4. EC reconstruction.
	if l.cfg.Mode == ModeEC {
		if data, format, err := l.reconstruct(ctx, to, id); err == nil {
			l.stats.reconstructions.Add(1)
			return data, format, "", "ec", nil
		}
	}

	l.stats.misses.Add(1)
	return nil, "", "", "", fmt.Errorf("%w: %s", ErrNotFound, id.Short())
}

// reconstruct rebuilds id from the first k of its shards that a store or
// the blade holds, fetched over the fabric in parallel. The shards' own
// bytes and format describe the object.
func (l *Layer) reconstruct(ctx context.Context, to idgen.NodeID, id idgen.ObjectID) ([]byte, string, error) {
	shards, formats := make([][]byte, l.shardCount()), make([]string, l.shardCount())
	var picked []int
	for i := 0; i < len(shards) && len(picked) < l.coder.DataShards(); i++ {
		if l.heldOutside(idgen.Nil, shardKey(id, i), (*objectstore.Store).Contains) {
			picked = append(picked, i)
		}
	}
	l.forEachParallel(len(picked), func(j int) error {
		i := picked[j] // distinct slot per worker: no lock needed
		if data, format, ok := l.fetchShard(ctx, to, shardKey(id, i)); ok && len(data) > shardTrailer {
			l.stats.bytesTransferred.Add(int64(len(data)))
			shards[i], formats[i] = data, format
		}
		return nil // a shard gone meanwhile is a hole within parity
	})
	origLen, format := 0, ""
	for i, s := range shards {
		if n := len(s) - shardTrailer; n > 0 {
			origLen, format = int(binary.BigEndian.Uint64(s[n:])), formats[i]
			shards[i] = s[:n]
		}
	}
	if err := l.coder.Reconstruct(shards); err != nil {
		return nil, "", err
	}
	data, err := l.coder.Join(shards, origLen)
	return data, format, err
}

// fetchShard moves one shard to node to from the first store, in
// registration order, that holds it, or else from the blade.
func (l *Layer) fetchShard(ctx context.Context, to idgen.NodeID, key idgen.ObjectID) ([]byte, string, bool) {
	for _, node := range l.copies(key, idgen.Nil) {
		if si := l.store(node); si != nil {
			if data, format, err := si.store.Get(key); err == nil {
				_, err := l.fabric.Move(ctx, node, to, data, 0)
				return data, format, err == nil
			}
		}
	}
	if pool := l.dsmPool(); pool != nil {
		data, format, err := pool.Read(to, key)
		return data, format, err == nil
	}
	return nil, "", false
}

// Contains reports whether id is readable by some path, without moving data.
func (l *Layer) Contains(id idgen.ObjectID) bool {
	return l.RecoverableWithout(idgen.Nil, id)
}

// RecoverableWithout reports whether id could still be materialized if
// node's copy vanished: another store or the blade holds the bytes, or at
// least k of its EC shards survive outside node. Invariant checkers use it
// to catch silently lost copies.
func (l *Layer) RecoverableWithout(node idgen.NodeID, id idgen.ObjectID) bool {
	if l.heldOutside(node, id, (*objectstore.Store).Contains) {
		return true
	}
	if l.cfg.Mode != ModeEC {
		return false
	}
	k, found := l.coder.DataShards(), 0
	for i := 0; i < l.shardCount() && found < k; i++ {
		if l.heldOutside(node, shardKey(id, i), (*objectstore.Store).Contains) {
			found++
		}
	}
	return found == k
}

// Locations returns the nodes whose store holds a full copy, in store
// registration order.
func (l *Layer) Locations(id idgen.ObjectID) []idgen.NodeID {
	return l.copies(id, idgen.Nil)
}

// Delete removes every copy of id, from the stores and the blade, and in
// ModeEC every one of its shards wherever they went.
func (l *Layer) Delete(id idgen.ObjectID) {
	l.drop(id)
	if l.cfg.Mode == ModeEC {
		for i := 0; i < l.shardCount(); i++ {
			l.drop(shardKey(id, i))
		}
	}
	if q := l.getQuota(); q != nil {
		q.Release(id)
	}
}

// drop deletes key from every registered store and frees it on the blade.
// The store table is read under storeMu, so a concurrent AddStore/DropNode
// does not race the iteration.
func (l *Layer) drop(key idgen.ObjectID) {
	l.storeMu.RLock()
	for _, si := range l.stores {
		_ = si.store.Delete(key)
	}
	pool := l.pool
	l.storeMu.RUnlock()
	if pool != nil {
		_ = pool.Free(key)
	}
}

// DropNode removes a failed node's store. Keys whose only copy lived there
// become reconstructable (EC), readable from a replica, or lost (lineage's
// job).
func (l *Layer) DropNode(node idgen.NodeID) {
	l.storeMu.Lock()
	defer l.storeMu.Unlock()
	delete(l.stores, node)
	l.order = slices.DeleteFunc(l.order, func(n idgen.NodeID) bool { return n == node })
}

// Stats returns a snapshot of activity counters.
func (l *Layer) Stats() Stats {
	return Stats{
		LocalHits:          l.stats.localHits.Load(),
		RemoteHits:         l.stats.remoteHits.Load(),
		DSMHits:            l.stats.dsmHits.Load(),
		Misses:             l.stats.misses.Load(),
		BytesTransferred:   l.stats.bytesTransferred.Load(),
		Reconstructions:    l.stats.reconstructions.Load(),
		ReplicaWrites:      l.stats.replicaWrites.Load(),
		ShardWrites:        l.stats.shardWrites.Load(),
		CoalescedHits:      l.stats.coalescedHits.Load(),
		DegradedPlacements: l.stats.degradedPlacements.Load(),
	}
}

// StorageBytes returns the total bytes resident across all registered
// stores plus the DSM pool — the denominator of the E6 storage-overhead
// comparison.
func (l *Layer) StorageBytes() int64 {
	l.storeMu.RLock()
	stores := make([]*storeInfo, 0, len(l.stores))
	for _, si := range l.stores {
		stores = append(stores, si)
	}
	pool := l.pool
	l.storeMu.RUnlock()
	var total int64
	for _, si := range stores {
		total += si.store.Used()
	}
	if pool != nil {
		total += pool.Used()
	}
	return total
}
