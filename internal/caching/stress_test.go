package caching

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"skadi/internal/dsm"
	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
)

// delayRig wires a layer over a fabric with real (TimeScale=1) per-message
// latency, so concurrency effects — overlap vs serialization — show up in
// wall-clock time.
func delayRig(t *testing.T, cfg Config, n int, latency time.Duration) *rig {
	t.Helper()
	f := fabric.New(fabric.Config{
		TimeScale: 1.0,
		Profiles: map[fabric.LinkClass]fabric.LinkProfile{
			fabric.Rack: {Latency: latency},
			fabric.Core: {Latency: latency},
		},
	})
	layer, err := NewLayer(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{layer: layer, fabric: f}
	for i := 0; i < n; i++ {
		node := idgen.Next()
		f.Register(node, fabric.Location{Rack: 0, Island: -1})
		layer.AddStore(node, HostDRAM, objectstore.New(1<<30, nil))
		r.nodes = append(r.nodes, node)
	}
	return r
}

// TestSingleflightCoalescesHotKey is the hot-key thundering-herd check:
// 8 concurrent Gets of one remote key must share a single fabric transfer
// (asserted via both Stats.BytesTransferred and fabric.ClassStats).
func TestSingleflightCoalescesHotKey(t *testing.T) {
	const size = 64 << 10
	const readers = 8
	r := delayRig(t, Config{}, 2, 30*time.Millisecond)
	id := idgen.Next()
	if err := r.layer.Put(r.nodes[0], id, bytes.Repeat([]byte{7}, size), "raw"); err != nil {
		t.Fatal(err)
	}
	r.fabric.ResetStats()

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			data, _, err := r.layer.Get(r.nodes[1], id)
			if err == nil && len(data) != size {
				err = errors.New("short read")
			}
			errs[i] = err
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}

	st := r.layer.Stats()
	if st.BytesTransferred != size {
		t.Errorf("BytesTransferred = %d, want %d (exactly one transfer for %d readers)",
			st.BytesTransferred, size, readers)
	}
	if st.RemoteHits != 1 {
		t.Errorf("RemoteHits = %d, want 1 leader", st.RemoteHits)
	}
	if st.CoalescedHits != readers-1 {
		t.Errorf("CoalescedHits = %d, want %d followers", st.CoalescedHits, readers-1)
	}
	rack := r.fabric.ClassStats(fabric.Rack)
	// Logical bytes: the rack link compresses on the wire, and this test is
	// about how many payload bytes coalescing saved, not about entropy.
	if rack.LogicalBytes != size {
		t.Errorf("fabric rack logical bytes = %d, want %d (one transfer)", rack.LogicalBytes, size)
	}
	if rack.Bytes > rack.LogicalBytes {
		t.Errorf("wire bytes %d exceed logical %d", rack.Bytes, rack.LogicalBytes)
	}
	if want := (rack.Bytes + fabric.ChunkBytes - 1) / fabric.ChunkBytes; rack.Messages != want {
		t.Errorf("fabric rack messages = %d, want %d (one chunked transfer)", rack.Messages, want)
	}
}

// TestParallelReplicatePutApproxMaxNotSum is the fan-out acceptance check:
// with fabric delays on, a ModeReplicate(3) Put pays ~max(replica cost),
// within 1.5× of a single replica transfer — not the ~(R-1)× sum the
// serial path paid. FanOut=1 reproduces the serial cost for contrast.
func TestParallelReplicatePutApproxMaxNotSum(t *testing.T) {
	const latency = 20 * time.Millisecond
	const size = 1 << 10

	put := func(fanOut int) time.Duration {
		r := delayRig(t, Config{Mode: ModeReplicate, Replicas: 3, FanOut: fanOut}, 4, latency)
		start := time.Now()
		if err := r.layer.Put(r.nodes[0], idgen.Next(), make([]byte, size), "raw"); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	single := latency // one replica transfer ≈ one rack latency
	if parallel := put(0); parallel > single*3/2 {
		t.Errorf("parallel replicate put took %v, want ≤ 1.5× single transfer (%v)", parallel, single*3/2)
	}
	if serial := put(1); serial < single*19/10 {
		t.Errorf("serial (FanOut=1) replicate put took %v, want ≈ 2 back-to-back transfers (≥ %v)", serial, single*19/10)
	}
}

// TestParallelReplicateErrorRecordsSuccesses: first-error-wins, but the
// replicas that did land are recorded so the data is still readable.
func TestParallelReplicateErrorRecordsSuccesses(t *testing.T) {
	f := fabric.New(fabric.Config{})
	layer, err := NewLayer(f, Config{Mode: ModeReplicate, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]idgen.NodeID, 3)
	for i := range nodes {
		nodes[i] = idgen.Next()
		f.Register(nodes[i], fabric.Location{Rack: 0, Island: -1})
	}
	layer.AddStore(nodes[0], HostDRAM, objectstore.New(1<<20, nil))
	layer.AddStore(nodes[1], HostDRAM, objectstore.New(1<<20, nil))
	layer.AddStore(nodes[2], HostDRAM, objectstore.New(10, nil)) // replica won't fit

	id := idgen.Next()
	if err := layer.Put(nodes[0], id, make([]byte, 100), "raw"); err == nil {
		t.Fatal("Put should surface the failed replica")
	}
	locs := layer.Locations(id)
	if len(locs) != 2 {
		t.Fatalf("locations = %v, want primary + the successful replica", locs)
	}
	if st := layer.Stats(); st.ReplicaWrites != 1 {
		t.Errorf("ReplicaWrites = %d, want 1", st.ReplicaWrites)
	}
}

// TestECShardPlacementNodeDisjoint: with enough nodes, the k+m shards land
// on k+m distinct nodes, none of them the writer — the fault-tolerance
// guarantee EC exists for.
func TestECShardPlacementNodeDisjoint(t *testing.T) {
	r := newRig(t, Config{Mode: ModeEC, ECData: 4, ECParity: 2}, 8, 1<<20)
	id := idgen.Next()
	if err := r.layer.Put(r.nodes[0], id, make([]byte, 6000), "raw"); err != nil {
		t.Fatal(err)
	}
	seen := make(map[idgen.NodeID]bool)
	for i := 0; i < 6; i++ {
		holders := r.layer.copies(shardKey(id, i), idgen.Nil)
		if len(holders) != 1 {
			t.Errorf("shard %d is held by %d stores, want 1", i, len(holders))
			continue
		}
		node := holders[0]
		if node == r.nodes[0] {
			t.Errorf("shard %d co-located with the writer", i)
		}
		if seen[node] {
			t.Errorf("shard %d shares node %s with another shard", i, node.Short())
		}
		seen[node] = true
	}
	if st := r.layer.Stats(); st.DegradedPlacements != 0 {
		t.Errorf("DegradedPlacements = %d, want 0 with 7 candidate nodes", st.DegradedPlacements)
	}
}

// TestECPlacementShortfallCounted: too few nodes for node-disjoint shards
// degrades with a warning counter instead of silently wrapping.
func TestECPlacementShortfallCounted(t *testing.T) {
	r := newRig(t, Config{Mode: ModeEC, ECData: 4, ECParity: 2}, 3, 1<<20)
	id := idgen.Next()
	if err := r.layer.Put(r.nodes[0], id, make([]byte, 6000), "raw"); err != nil {
		t.Fatal(err)
	}
	if st := r.layer.Stats(); st.DegradedPlacements == 0 {
		t.Error("DegradedPlacements not counted for 6 shards over 2 nodes")
	}
	// The data must still be readable (degraded, not broken).
	if _, _, err := r.layer.Get(r.nodes[1], id); err != nil {
		t.Errorf("Get after degraded placement: %v", err)
	}
}

// TestReplicateSurvivesConcurrentDropNode is the regression for the
// l.stores[node] nil-pointer crash: a DropNode racing pickNodes must not
// panic the replica writers; the write re-picks or degrades.
func TestReplicateSurvivesConcurrentDropNode(t *testing.T) {
	f := fabric.New(fabric.Config{})
	layer, err := NewLayer(f, Config{Mode: ModeReplicate, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []idgen.NodeID
	for i := 0; i < 5; i++ {
		node := idgen.Next()
		f.Register(node, fabric.Location{Rack: 0, Island: -1})
		layer.AddStore(node, HostDRAM, objectstore.New(1<<30, nil))
		nodes = append(nodes, node)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim := nodes[4]
		for {
			select {
			case <-stop:
				return
			default:
			}
			layer.DropNode(victim)
			layer.AddStore(victim, HostDRAM, objectstore.New(1<<30, nil))
		}
	}()
	for i := 0; i < 500; i++ {
		id := idgen.Next()
		if err := layer.Put(nodes[i%4], id, make([]byte, 256), "raw"); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if _, _, err := layer.Get(nodes[(i+1)%4], id); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentDataPlaneStress hammers one layer with concurrent Put, Get,
// Delete, DropNode/AddStore, and Stats — the -race sweep over the sharded
// directory, singleflight table, and snapshot-based Delete.
func TestConcurrentDataPlaneStress(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Mode: ModeReplicate, Replicas: 2},
		{Mode: ModeEC, ECData: 2, ECParity: 1},
	} {
		f := fabric.New(fabric.Config{})
		layer, err := NewLayer(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []idgen.NodeID
		for i := 0; i < 6; i++ {
			node := idgen.Next()
			f.Register(node, fabric.Location{Rack: i % 2, Island: -1})
			layer.AddStore(node, HostDRAM, objectstore.New(1<<30, nil))
			nodes = append(nodes, node)
		}

		// A shared pool of hot keys all workers operate on.
		const hotKeys = 16
		ids := make([]idgen.ObjectID, hotKeys)
		for i := range ids {
			ids[i] = idgen.Next()
			_ = layer.Put(nodes[0], ids[i], make([]byte, 512), "raw")
		}

		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					id := ids[(w+i)%hotKeys]
					switch i % 5 {
					case 0:
						_ = layer.Put(nodes[w%4], id, make([]byte, 512), "raw")
					case 1, 2:
						_, _, _ = layer.Get(nodes[(w+i)%4], id)
					case 3:
						layer.Delete(id)
						_ = layer.Put(nodes[w%4], id, make([]byte, 512), "raw")
					case 4:
						_ = layer.Stats()
						_ = layer.Contains(id)
						_ = layer.Locations(id)
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			victim := nodes[5]
			for i := 0; i < 50; i++ {
				layer.DropNode(victim)
				layer.AddStore(victim, HostDRAM, objectstore.New(1<<30, nil))
			}
		}()
		wg.Wait()
		_ = layer.StorageBytes()
	}
}

// TestDeleteDoesNotRaceMembership is the regression for Delete iterating
// the live stores map after dropping the lock: Delete against concurrent
// AddStore/DropNode must be race-clean (run under -race).
func TestDeleteDoesNotRaceMembership(t *testing.T) {
	f := fabric.New(fabric.Config{})
	layer, err := NewLayer(f, Config{Mode: ModeReplicate, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []idgen.NodeID
	for i := 0; i < 4; i++ {
		node := idgen.Next()
		f.Register(node, fabric.Location{Rack: 0, Island: -1})
		layer.AddStore(node, HostDRAM, objectstore.New(1<<30, nil))
		nodes = append(nodes, node)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			extra := idgen.Next()
			layer.AddStore(extra, HostDRAM, objectstore.New(1<<20, nil))
			layer.DropNode(extra)
		}
	}()
	for i := 0; i < 1000; i++ {
		id := idgen.Next()
		_ = layer.Put(nodes[i%4], id, make([]byte, 64), "raw")
		layer.Delete(id)
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentEvictionOfLastTwoCopies evicts the only two copies of an
// object from two stores at once: at least one of the evictions must
// demote it to DSM, so it stays readable.
func TestConcurrentEvictionOfLastTwoCopies(t *testing.T) {
	r := newRig(t, Config{}, 2, 100)
	blade := idgen.Next()
	r.fabric.Register(blade, fabric.Location{Rack: 0, Island: -1})
	r.layer.SetDSM(dsm.New(r.fabric, blade, 1<<30))
	for i := 0; i < 2000; i++ {
		id := idgen.Next()
		for _, n := range r.nodes {
			if err := r.layer.Store(n).Put(id, make([]byte, 80), "raw"); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for _, n := range r.nodes {
			wg.Add(1)
			go func(st *objectstore.Store) {
				defer wg.Done()
				_ = st.Put(idgen.Next(), make([]byte, 80), "raw")
			}(r.layer.Store(n))
		}
		wg.Wait()
		if _, _, err := r.layer.Get(r.nodes[0], id); err != nil {
			t.Fatalf("round %d: both copies evicted at once and the object is gone: %v", i, err)
		}
	}
}
