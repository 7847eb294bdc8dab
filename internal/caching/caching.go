// Package caching implements Skadi's caching layer — the bedrock of the
// stateful serverless runtime's data plane (§1, §2.1). It exposes a simple
// KV API over every memory tier in the cluster: host DRAM on servers, HBM
// on heterogeneous devices, and disaggregated memory — while hiding data
// location and movement from its users. It supports three reliability
// modes: none (lineage handles failures), replication, and Reed–Solomon
// erasure coding; the lineage-vs-reliable-cache trade-off of §2.1 is
// exercised by experiment E6.
//
// The data plane is parallel end to end (E15): redundancy writes fan out
// concurrently over a bounded worker pool, remote hits stream over the
// fabric in pipelined chunks, concurrent fetches of one hot key coalesce
// into a single transfer, and the directory is hash-sharded so local hits
// never contend on a global lock.
package caching

import (
	"context"
	"errors"
	"fmt"
	"sort"
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

// numShards is the directory shard count. 32 shards keep per-shard lock
// contention negligible for any realistic core count while the fixed array
// stays small.
const numShards = 32

// Config configures a Layer.
type Config struct {
	Mode Mode
	// Replicas is the total copy count for ModeReplicate (≥ 2).
	Replicas int
	// ECData/ECParity are the Reed–Solomon parameters for ModeEC.
	ECData, ECParity int
	// CacheOnRead keeps a local copy after a remote Get, so subsequent
	// reads (and tasks migrated here) hit locally.
	CacheOnRead bool
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

type ecInfo struct {
	shardIDs []idgen.ObjectID
	nodes    []idgen.NodeID // node of each shard; Nil marks a failed slot
	origLen  int
	format   string
}

type storeInfo struct {
	store *objectstore.Store
	tier  Tier
}

// dirShard is one hash shard of the object directory. Each shard has its
// own lock so directory lookups scale with cores instead of serializing on
// a layer-global mutex.
type dirShard struct {
	mu        sync.RWMutex
	locations map[idgen.ObjectID]map[idgen.NodeID]bool
	formats   map[idgen.ObjectID]string
	inDSM     map[idgen.ObjectID]bool
	ec        map[idgen.ObjectID]*ecInfo
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

// Layer is the cluster-wide caching layer. It is safe for concurrent use.
// Quota is the consumer-side interface to per-tenant cache-byte quotas.
// The tenancy controller implements it; the caching layer stays free of a
// tenancy dependency. Reserve is charged once per logical object on the
// put path — before any bytes land — with the submitting tenant carried on
// ctx; replicas and EC shards of the same object are not re-charged.
// Release returns the bytes when the object's directory entry is deleted.
type Quota interface {
	Reserve(ctx context.Context, id idgen.ObjectID, n int64) error
	Release(id idgen.ObjectID)
}

type Layer struct {
	fabric *fabric.Fabric
	cfg    Config
	coder  *erasure.Coder

	quotaMu sync.RWMutex
	quota   Quota

	// storeMu guards the store table and placement cursor. It is an
	// RWMutex so the data plane's store lookups never contend with each
	// other — only AddStore/DropNode take it exclusively.
	storeMu sync.RWMutex
	stores  map[idgen.NodeID]*storeInfo
	order   []idgen.NodeID // registration order for deterministic placement
	pool    *dsm.Pool
	rr      int // round-robin cursor for shard/replica placement

	shards [numShards]dirShard

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
	for i := range l.shards {
		sh := &l.shards[i]
		sh.locations = make(map[idgen.ObjectID]map[idgen.NodeID]bool)
		sh.formats = make(map[idgen.ObjectID]string)
		sh.inDSM = make(map[idgen.ObjectID]bool)
		sh.ec = make(map[idgen.ObjectID]*ecInfo)
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

// shardFor returns the directory shard owning id.
func (l *Layer) shardFor(id idgen.ObjectID) *dirShard {
	return &l.shards[id.Seq()%numShards]
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
// eviction path into the layer: evicted objects spill to disaggregated
// memory when a pool is attached, or are dropped (with their location
// forgotten) otherwise.
func (l *Layer) AddStore(node idgen.NodeID, tier Tier, store *objectstore.Store) {
	store.SetSpill(func(id idgen.ObjectID, data []byte, format string) error {
		return l.onEvict(node, id, data)
	})
	l.storeMu.Lock()
	defer l.storeMu.Unlock()
	if _, ok := l.stores[node]; !ok {
		l.order = append(l.order, node)
	}
	l.stores[node] = &storeInfo{store: store, tier: tier}
}

// onEvict handles one eviction from a node's store: forget the location
// and, if this was the last full copy and a DSM pool exists, demote the
// bytes to disaggregated memory instead of losing them.
func (l *Layer) onEvict(node idgen.NodeID, id idgen.ObjectID, data []byte) error {
	sh := l.shardFor(id)
	sh.mu.Lock()
	if set, ok := sh.locations[id]; ok {
		delete(set, node)
	}
	lastCopy := len(sh.locations[id]) == 0 && !sh.inDSM[id]
	sh.mu.Unlock()
	pool := l.dsmPool()
	if !lastCopy || pool == nil {
		return nil // another copy survives, or nothing to demote to
	}
	if err := pool.Write(node, id, data); err != nil {
		if errors.Is(err, dsm.ErrExists) {
			return nil
		}
		return err
	}
	sh.mu.Lock()
	sh.inDSM[id] = true
	sh.mu.Unlock()
	return nil
}

// SetDSM attaches the disaggregated-memory pool as the coldest tier.
func (l *Layer) SetDSM(pool *dsm.Pool) {
	l.storeMu.Lock()
	l.pool = pool
	l.storeMu.Unlock()
}

// NoteLocation records that node's store holds a full copy of id (used by
// raylets after caching a fetched or pushed object locally), so the layer's
// directory stays complete and Delete can reclaim every copy.
func (l *Layer) NoteLocation(node idgen.NodeID, id idgen.ObjectID) {
	if l.store(node) == nil {
		return
	}
	l.recordLocation(id, node)
}

// ForgetLocation removes the record that node holds a full copy of id,
// leaving other copies untouched. Live migration uses it when the source
// drops its copy after transferring it to the destination.
func (l *Layer) ForgetLocation(node idgen.NodeID, id idgen.ObjectID) {
	sh := l.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if set, ok := sh.locations[id]; ok {
		delete(set, node)
		if len(set) == 0 {
			delete(sh.locations, id)
		}
	}
}

// Store returns the raw object store registered for a node, or nil. Raylets
// use it for spill wiring.
func (l *Layer) Store(node idgen.NodeID) *objectstore.Store {
	if si := l.store(node); si != nil {
		return si.store
	}
	return nil
}

// recordLocation notes that node holds a full copy of id.
func (l *Layer) recordLocation(id idgen.ObjectID, node idgen.NodeID) {
	sh := l.shardFor(id)
	sh.mu.Lock()
	set, ok := sh.locations[id]
	if !ok {
		set = make(map[idgen.NodeID]bool)
		sh.locations[id] = set
	}
	set[node] = true
	sh.mu.Unlock()
}

// holders returns a snapshot of the nodes recorded as holding id.
func (l *Layer) holders(id idgen.ObjectID) map[idgen.NodeID]bool {
	sh := l.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make(map[idgen.NodeID]bool, len(sh.locations[id]))
	for node := range sh.locations[id] {
		out[node] = true
	}
	return out
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
	primaryLocal := true
	tier := si.tier.String()
	err := si.store.Put(id, data, format)
	switch {
	case err == nil:
	case errors.Is(err, objectstore.ErrExists):
		return tier, err
	case pool != nil:
		if derr := pool.Write(from, id, data); derr != nil {
			if quota != nil {
				quota.Release(id)
			}
			return tier, fmt.Errorf("caching: primary put failed: %v; dsm: %w", err, derr)
		}
		primaryLocal = false
		tier = DisaggMem.String()
	default:
		if quota != nil {
			quota.Release(id)
		}
		return tier, err
	}

	sh := l.shardFor(id)
	sh.mu.Lock()
	sh.formats[id] = format
	sh.mu.Unlock()
	if primaryLocal {
		l.recordLocation(id, from)
	} else {
		sh.mu.Lock()
		sh.inDSM[id] = true
		sh.mu.Unlock()
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

// writeReplica moves one replica to node and records it. A target dropped
// since placement (concurrent DropNode) is re-picked rather than
// dereferenced — the regression the serial path crashed on.
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
	if _, err := l.fabric.TransferDataCtx(ctx, from, node, data); err != nil {
		// The target left the fabric while the replica was in flight:
		// degrade (fewer copies, counted), same as a dropped store.
		l.stats.degradedPlacements.Add(1)
		return nil
	}
	if err := si.store.Put(id, data, format); err != nil && !errors.Is(err, objectstore.ErrExists) {
		return fmt.Errorf("caching: replica on %s: %w", node.Short(), err)
	}
	l.recordLocation(id, node)
	if l.store(node) == nil {
		// The node was dropped while the replica was in flight: DropNode
		// already scrubbed its locations, so take this one back out rather
		// than leaving a stale entry pointing at a dead store.
		l.ForgetLocation(node, id)
		l.stats.degradedPlacements.Add(1)
		return nil
	}
	l.stats.replicaWrites.Add(1)
	l.stats.bytesTransferred.Add(int64(len(data)))
	return nil
}

// repick finds a substitute replica target: any registered node that is
// neither the writer nor already recorded as holding id.
func (l *Layer) repick(exclude idgen.NodeID, id idgen.ObjectID) (idgen.NodeID, *storeInfo, bool) {
	holders := l.holders(id)
	l.storeMu.RLock()
	defer l.storeMu.RUnlock()
	for _, node := range l.order {
		if node == exclude || holders[node] {
			continue
		}
		if si := l.stores[node]; si != nil {
			return node, si, true
		}
	}
	return idgen.Nil, nil, false
}

// encodeShards writes k+m erasure shards across other nodes, fanning the
// shard transfers out concurrently. Placement is node-disjoint whenever the
// cluster has enough nodes; a shortfall (shards forced to share nodes,
// weakening the k+m guarantee) is surfaced via DegradedPlacements.
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
	info := &ecInfo{
		origLen:  len(data),
		format:   format,
		shardIDs: make([]idgen.ObjectID, n),
		nodes:    make([]idgen.NodeID, n),
	}
	err := l.forEachParallel(n, func(i int) error {
		node := targets[i%len(targets)]
		si := l.store(node)
		if si == nil {
			// Target dropped since placement: substitute any node not yet
			// holding a shard of this object, or skip the slot (Nil node;
			// reconstruct tolerates missing shards up to parity).
			var ok bool
			node, si, ok = l.repick(from, id)
			if !ok {
				l.stats.degradedPlacements.Add(1)
				return nil
			}
		}
		shardID := idgen.Next()
		if _, err := l.fabric.TransferDataCtx(ctx, from, node, shards[i]); err != nil {
			// Target departed mid-encode: skip the slot (Nil node; parity
			// tolerates missing shards), counted as a degraded placement.
			l.stats.degradedPlacements.Add(1)
			return nil
		}
		if err := si.store.Put(shardID, shards[i], "ec-shard"); err != nil {
			return fmt.Errorf("caching: shard %d on %s: %w", i, node.Short(), err)
		}
		info.shardIDs[i] = shardID // distinct slot per worker: no lock needed
		info.nodes[i] = node
		l.stats.shardWrites.Add(1)
		l.stats.bytesTransferred.Add(int64(len(shards[i])))
		return nil
	})
	if err != nil {
		return err
	}
	sh := l.shardFor(id)
	sh.mu.Lock()
	sh.ec[id] = info
	sh.mu.Unlock()
	return nil
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
	// performs the fetch (and the CacheOnRead local fill); concurrent
	// readers on the same node share its result — one fabric transfer for
	// a hot key, not N.
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

	fl.data, fl.format, fl.tier, fl.src, fl.err = l.fetchMiss(ctx, to, id, si)

	l.flightMu.Lock()
	delete(l.flights, key)
	l.flightMu.Unlock()
	close(fl.done)
	return fl.data, fl.format, fl.tier, fl.src, fl.err
}

// fetchMiss resolves a local miss: remote replica (cheapest first, streamed
// in pipelined chunks), disaggregated memory, then EC reconstruction.
func (l *Layer) fetchMiss(ctx context.Context, to idgen.NodeID, id idgen.ObjectID, si *storeInfo) ([]byte, string, string, string, error) {
	sh := l.shardFor(id)
	sh.mu.RLock()
	locs := make([]idgen.NodeID, 0, len(sh.locations[id]))
	for node := range sh.locations[id] {
		if node != to { // stale: local store said no
			locs = append(locs, node)
		}
	}
	format := sh.formats[id]
	inDSM := sh.inDSM[id]
	info := sh.ec[id]
	sh.mu.RUnlock()
	cacheOnRead := l.cfg.CacheOnRead
	hasStore := si != nil

	// 2. Remote replica: cheapest location by fabric cost first, falling
	// through to the next on a stale entry.
	sort.Slice(locs, func(i, j int) bool {
		ci, cj := l.fabric.Cost(locs[i], to, 0), l.fabric.Cost(locs[j], to, 0)
		if ci != cj {
			return ci < cj
		}
		return locs[i].Less(locs[j])
	})
	for _, node := range locs {
		remote := l.store(node)
		if remote == nil {
			continue
		}
		data, f, err := remote.store.Get(id)
		if err != nil {
			continue
		}
		if _, err := l.fabric.TransferDataCtx(ctx, node, to, data); err != nil {
			continue // source vanished mid-transfer: try the next location
		}
		l.stats.remoteHits.Add(1)
		l.stats.bytesTransferred.Add(int64(len(data)))
		l.maybeCacheLocal(cacheOnRead, hasStore, si, to, id, data, f)
		return data, f, remote.tier.String(), "remote", nil
	}

	// 3. Disaggregated memory.
	if inDSM {
		if pool := l.dsmPool(); pool != nil {
			if data, err := pool.Read(to, id); err == nil {
				l.stats.dsmHits.Add(1)
				l.stats.bytesTransferred.Add(int64(len(data)))
				l.maybeCacheLocal(cacheOnRead, hasStore, si, to, id, data, format)
				return data, format, DisaggMem.String(), "dsm", nil
			}
		}
	}

	// 4. EC reconstruction.
	if info != nil {
		data, err := l.reconstruct(ctx, to, info)
		if err == nil {
			l.stats.reconstructions.Add(1)
			l.maybeCacheLocal(cacheOnRead, hasStore, si, to, id, data, info.format)
			return data, info.format, "", "ec", nil
		}
	}

	l.stats.misses.Add(1)
	return nil, "", "", "", fmt.Errorf("%w: %s", ErrNotFound, id.Short())
}

func (l *Layer) maybeCacheLocal(enabled, hasStore bool, si *storeInfo, to idgen.NodeID, id idgen.ObjectID, data []byte, format string) {
	if !enabled || !hasStore {
		return
	}
	if err := si.store.Put(id, data, format); err == nil {
		l.recordLocation(id, to)
	}
}

// reconstruct rebuilds a value from its surviving EC shards, fetching the
// k needed shards over the fabric in parallel.
func (l *Layer) reconstruct(ctx context.Context, to idgen.NodeID, info *ecInfo) ([]byte, error) {
	k := l.coder.DataShards()
	total := k + l.coder.ParityShards()
	shards := make([][]byte, total)

	// Select the first k surviving shards (control path: store reads are
	// local to their node), then pay the k fabric moves concurrently.
	type fetch struct {
		idx  int
		node idgen.NodeID
		data []byte
	}
	var fetches []fetch
	for i := 0; i < len(info.shardIDs) && len(fetches) < k; i++ {
		if info.nodes[i].IsNil() {
			continue // slot skipped at write time (degraded placement)
		}
		si := l.store(info.nodes[i])
		if si == nil {
			continue
		}
		data, _, err := si.store.Get(info.shardIDs[i])
		if err != nil {
			continue
		}
		fetches = append(fetches, fetch{idx: i, node: info.nodes[i], data: data})
	}
	if err := l.forEachParallel(len(fetches), func(i int) error {
		f := fetches[i]
		if _, err := l.fabric.TransferDataCtx(ctx, f.node, to, f.data); err != nil {
			return nil // shard source departed; the hole is within parity
		}
		l.stats.bytesTransferred.Add(int64(len(f.data)))
		shards[f.idx] = f.data
		return nil
	}); err != nil {
		return nil, err
	}
	if err := l.coder.Reconstruct(shards); err != nil {
		return nil, err
	}
	return l.coder.Join(shards, info.origLen)
}

// Contains reports whether id is readable by some path, without moving data.
func (l *Layer) Contains(id idgen.ObjectID) bool {
	sh := l.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if set, ok := sh.locations[id]; ok && len(set) > 0 {
		return true
	}
	if sh.inDSM[id] {
		return true
	}
	_, ok := sh.ec[id]
	return ok
}

// RecoverableWithout reports whether id could still be materialized if
// node's copy vanished: another location whose store REALLY holds the
// bytes (verified against the store, not just this index — invariant
// checkers use this to catch silently-lost copies), the DSM tier, or an
// EC group.
func (l *Layer) RecoverableWithout(node idgen.NodeID, id idgen.ObjectID) bool {
	sh := l.shardFor(id)
	sh.mu.RLock()
	others := make([]idgen.NodeID, 0, len(sh.locations[id]))
	for loc := range sh.locations[id] {
		if loc != node {
			others = append(others, loc)
		}
	}
	redundant := sh.inDSM[id]
	if _, ok := sh.ec[id]; ok {
		redundant = true
	}
	sh.mu.RUnlock()
	if redundant {
		return true
	}
	for _, loc := range others {
		if st := l.Store(loc); st != nil && st.Contains(id) {
			return true
		}
	}
	return false
}

// Locations returns the nodes currently recorded as holding a full copy,
// sorted for determinism.
func (l *Layer) Locations(id idgen.ObjectID) []idgen.NodeID {
	sh := l.shardFor(id)
	sh.mu.RLock()
	out := make([]idgen.NodeID, 0, len(sh.locations[id]))
	for node := range sh.locations[id] {
		out = append(out, node)
	}
	sh.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Delete removes every copy, shard, and DSM entry for id. The stores to
// touch are snapshotted under the locks, so a concurrent AddStore/DropNode
// does not race the map iteration.
func (l *Layer) Delete(id idgen.ObjectID) {
	sh := l.shardFor(id)
	sh.mu.Lock()
	locs := make([]idgen.NodeID, 0, len(sh.locations[id]))
	for node := range sh.locations[id] {
		locs = append(locs, node)
	}
	info := sh.ec[id]
	inDSM := sh.inDSM[id]
	delete(sh.locations, id)
	delete(sh.formats, id)
	delete(sh.inDSM, id)
	delete(sh.ec, id)
	sh.mu.Unlock()

	for _, node := range locs {
		if si := l.store(node); si != nil {
			_ = si.store.Delete(id)
		}
	}
	if info != nil {
		for i, shardID := range info.shardIDs {
			if info.nodes[i].IsNil() {
				continue
			}
			if si := l.store(info.nodes[i]); si != nil {
				_ = si.store.Delete(shardID)
			}
		}
	}
	if inDSM {
		if pool := l.dsmPool(); pool != nil {
			_ = pool.Free(id)
		}
	}
	if q := l.getQuota(); q != nil {
		q.Release(id)
	}
}

// DropNode removes a failed node's store and forgets every location on it.
// Keys whose only copy lived there become reconstructable (EC), readable
// from a replica, or lost (lineage's job).
func (l *Layer) DropNode(node idgen.NodeID) {
	l.storeMu.Lock()
	delete(l.stores, node)
	for i, id := range l.order {
		if id == node {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.storeMu.Unlock()
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for _, set := range sh.locations {
			delete(set, node)
		}
		sh.mu.Unlock()
	}
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
