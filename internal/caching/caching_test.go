package caching

import (
	"bytes"
	"errors"
	"testing"

	"skadi/internal/dsm"
	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
)

// rig wires a layer with n server stores of the given capacity.
type rig struct {
	layer  *Layer
	fabric *fabric.Fabric
	nodes  []idgen.NodeID
}

func newRig(t *testing.T, cfg Config, n int, capacity int64) *rig {
	t.Helper()
	f := fabric.New(fabric.Config{})
	layer, err := NewLayer(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{layer: layer, fabric: f}
	for i := 0; i < n; i++ {
		node := idgen.Next()
		f.Register(node, fabric.Location{Rack: i % 2, Island: -1})
		layer.AddStore(node, HostDRAM, objectstore.New(capacity, nil))
		r.nodes = append(r.nodes, node)
	}
	return r
}

func TestPutGetLocal(t *testing.T) {
	r := newRig(t, Config{}, 2, 1<<20)
	id := idgen.Next()
	if err := r.layer.Put(r.nodes[0], id, []byte("v"), "raw"); err != nil {
		t.Fatal(err)
	}
	data, format, err := r.layer.Get(r.nodes[0], id)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v" || format != "raw" {
		t.Errorf("Get = %q/%q", data, format)
	}
	if r.layer.Stats().LocalHits != 1 {
		t.Errorf("stats = %+v, want 1 local hit", r.layer.Stats())
	}
}

func TestGetRemote(t *testing.T) {
	r := newRig(t, Config{}, 2, 1<<20)
	id := idgen.Next()
	if err := r.layer.Put(r.nodes[0], id, make([]byte, 1000), "raw"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.layer.Get(r.nodes[1], id); err != nil {
		t.Fatal(err)
	}
	st := r.layer.Stats()
	if st.RemoteHits != 1 || st.BytesTransferred != 1000 {
		t.Errorf("stats = %+v", st)
	}
	// The layer caches nothing on read: the remote read leaves no local copy.
	locs := r.layer.Locations(id)
	if len(locs) != 1 || locs[0] != r.nodes[0] {
		t.Errorf("locations = %v", locs)
	}
}

func TestGetMissing(t *testing.T) {
	r := newRig(t, Config{}, 1, 1<<20)
	if _, _, err := r.layer.Get(r.nodes[0], idgen.Next()); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get = %v, want ErrNotFound", err)
	}
	if r.layer.Stats().Misses != 1 {
		t.Error("miss not counted")
	}
}

func TestPutWithoutStore(t *testing.T) {
	r := newRig(t, Config{}, 1, 1<<20)
	if err := r.layer.Put(idgen.Next(), idgen.Next(), []byte("x"), "raw"); !errors.Is(err, ErrNoStore) {
		t.Errorf("Put = %v, want ErrNoStore", err)
	}
}

func TestSpillToDSMOnPressure(t *testing.T) {
	r := newRig(t, Config{}, 1, 100)
	blade := idgen.Next()
	r.fabric.Register(blade, fabric.Location{Rack: 0, Island: -1})
	pool := dsm.New(r.fabric, blade, 1<<20)
	r.layer.SetDSM(pool)

	big1, big2 := idgen.Next(), idgen.Next()
	if err := r.layer.Put(r.nodes[0], big1, make([]byte, 80), "raw"); err != nil {
		t.Fatal(err)
	}
	// Second put exceeds the 100-byte store; primary goes to DSM directly
	// since the store cannot evict enough (big1 is unpinned though, so the
	// store may evict it — either way both must stay readable).
	if err := r.layer.Put(r.nodes[0], big2, make([]byte, 80), "raw"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []idgen.ObjectID{big1, big2} {
		if _, _, err := r.layer.Get(r.nodes[0], id); err != nil {
			t.Errorf("Get(%s) after pressure: %v", id.Short(), err)
		}
	}
}

// TestSpillKeepsFormatOfCopyPlacedOutsidePut: a copy that reached a store
// without Layer.Put (a raylet's push or cached fetch) spills to DSM with
// its own format, not an empty one.
func TestSpillKeepsFormatOfCopyPlacedOutsidePut(t *testing.T) {
	r := newRig(t, Config{}, 1, 100)
	blade := idgen.Next()
	r.fabric.Register(blade, fabric.Location{Rack: 0, Island: -1})
	r.layer.SetDSM(dsm.New(r.fabric, blade, 1<<20))

	id := idgen.Next()
	if err := r.layer.Store(r.nodes[0]).Put(id, make([]byte, 80), "arrow"); err != nil {
		t.Fatal(err)
	}
	if err := r.layer.Put(r.nodes[0], idgen.Next(), make([]byte, 80), "raw"); err != nil {
		t.Fatal(err)
	}
	if r.layer.Store(r.nodes[0]).Contains(id) {
		t.Fatal("the second put did not evict the first object")
	}
	if _, format, err := r.layer.Get(r.nodes[0], id); err != nil || format != "arrow" {
		t.Errorf("Get after spill = format %q, %v; want arrow", format, err)
	}
}

func TestReplicationSurvivesNodeLoss(t *testing.T) {
	r := newRig(t, Config{Mode: ModeReplicate, Replicas: 2}, 3, 1<<20)
	id := idgen.Next()
	if err := r.layer.Put(r.nodes[0], id, []byte("precious"), "raw"); err != nil {
		t.Fatal(err)
	}
	locs := r.layer.Locations(id)
	if len(locs) != 2 {
		t.Fatalf("locations = %d, want 2", len(locs))
	}
	// Kill the primary.
	r.layer.DropNode(r.nodes[0])
	data, _, err := r.layer.Get(r.nodes[1], id)
	if err != nil {
		t.Fatalf("Get after primary loss: %v", err)
	}
	if string(data) != "precious" {
		t.Errorf("data = %q", data)
	}
}

func TestReplicateValidation(t *testing.T) {
	if _, err := NewLayer(fabric.New(fabric.Config{}), Config{Mode: ModeReplicate, Replicas: 1}); err == nil {
		t.Error("Replicas=1 should be rejected")
	}
}

func TestECSurvivesNodeLoss(t *testing.T) {
	r := newRig(t, Config{Mode: ModeEC, ECData: 2, ECParity: 1}, 4, 1<<20)
	id := idgen.Next()
	payload := bytes.Repeat([]byte("skadi!"), 100)
	if err := r.layer.Put(r.nodes[0], id, payload, "raw"); err != nil {
		t.Fatal(err)
	}
	// Kill the primary: only EC shards remain on nodes 1..3.
	r.layer.DropNode(r.nodes[0])
	data, format, err := r.layer.Get(r.nodes[1], id)
	if err != nil {
		t.Fatalf("Get after loss: %v", err)
	}
	if !bytes.Equal(data, payload) || format != "raw" {
		t.Errorf("reconstructed %d bytes, format %q", len(data), format)
	}
	if r.layer.Stats().Reconstructions == 0 {
		t.Error("reconstruction not counted")
	}
}

func TestECStorageOverheadBelowReplication(t *testing.T) {
	payload := make([]byte, 9000)
	recRig := newRig(t, Config{Mode: ModeReplicate, Replicas: 3}, 6, 1<<20)
	if err := recRig.layer.Put(recRig.nodes[0], idgen.Next(), payload, "raw"); err != nil {
		t.Fatal(err)
	}
	ecRig := newRig(t, Config{Mode: ModeEC, ECData: 4, ECParity: 2}, 6, 1<<20)
	if err := ecRig.layer.Put(ecRig.nodes[0], idgen.Next(), payload, "raw"); err != nil {
		t.Fatal(err)
	}
	if ecRig.layer.StorageBytes() >= recRig.layer.StorageBytes() {
		t.Errorf("EC storage %d should undercut 3x replication %d",
			ecRig.layer.StorageBytes(), recRig.layer.StorageBytes())
	}
}

func TestDelete(t *testing.T) {
	r := newRig(t, Config{Mode: ModeReplicate, Replicas: 2}, 3, 1<<20)
	id := idgen.Next()
	if err := r.layer.Put(r.nodes[0], id, []byte("x"), "raw"); err != nil {
		t.Fatal(err)
	}
	// A copy placed outside Put (a raylet's push or cached fetch) is listed
	// and reclaimed like the others.
	for _, n := range r.nodes {
		if err := r.layer.Store(n).Put(id, []byte("x"), "raw"); err != nil && !errors.Is(err, objectstore.ErrExists) {
			t.Fatal(err)
		}
	}
	if locs := r.layer.Locations(id); len(locs) != 3 {
		t.Errorf("Locations = %v, want all 3 nodes", locs)
	}
	r.layer.Delete(id)
	if r.layer.Contains(id) {
		t.Error("Contains after Delete")
	}
	if _, _, err := r.layer.Get(r.nodes[0], id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete = %v", err)
	}
	if r.layer.StorageBytes() != 0 {
		t.Errorf("StorageBytes = %d after Delete", r.layer.StorageBytes())
	}
}

func TestContains(t *testing.T) {
	r := newRig(t, Config{}, 2, 1<<20)
	id := idgen.Next()
	if r.layer.Contains(id) {
		t.Error("Contains before Put")
	}
	if err := r.layer.Put(r.nodes[0], id, []byte("x"), "raw"); err != nil {
		t.Fatal(err)
	}
	if !r.layer.Contains(id) {
		t.Error("Contains after Put")
	}
}

func TestGetPrefersCheapestLocation(t *testing.T) {
	// nodes[0] and nodes[2] are rack 0; nodes[1] rack 1. A reader on
	// nodes[2] should fetch from the same-rack copy.
	r := newRig(t, Config{Mode: ModeReplicate, Replicas: 2}, 3, 1<<20)
	id := idgen.Next()
	if err := r.layer.Put(r.nodes[0], id, make([]byte, 10), "raw"); err != nil {
		t.Fatal(err)
	}
	r.fabric.ResetStats()
	if _, _, err := r.layer.Get(r.nodes[2], id); err != nil {
		t.Fatal(err)
	}
	// Same-rack transfer ⇒ Rack class traffic, no Core traffic.
	if r.fabric.ClassStats(fabric.Core).Messages != 0 {
		t.Error("Get crossed racks despite a same-rack replica")
	}
	if r.fabric.ClassStats(fabric.Rack).Messages == 0 {
		t.Error("expected rack-class transfer")
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{HostDRAM: "dram", DeviceHBM: "hbm", DisaggMem: "disagg"} {
		if tier.String() != want {
			t.Errorf("String = %q, want %q", tier.String(), want)
		}
	}
}

// shardHolders returns the nodes other than writer whose store holds a key
// other than id: with one object put, those keys are its EC shards.
func (r *rig) shardHolders(writer idgen.NodeID, id idgen.ObjectID) []idgen.NodeID {
	var out []idgen.NodeID
	for _, n := range r.nodes {
		if n == writer {
			continue
		}
		for _, key := range r.layer.Store(n).List() {
			if key != id {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// TestRecoverableWithoutCountsSurvivingShards: an EC 2+1 object whose
// shard holders are down to one is not recoverable without the writer's
// copy, and Get agrees once that copy goes too.
func TestRecoverableWithoutCountsSurvivingShards(t *testing.T) {
	r := newRig(t, Config{Mode: ModeEC, ECData: 2, ECParity: 1}, 4, 1<<20)
	writer, id := r.nodes[0], idgen.Next()
	if err := r.layer.Put(writer, id, bytes.Repeat([]byte("ec"), 500), "raw"); err != nil {
		t.Fatal(err)
	}
	holders := r.shardHolders(writer, id)
	if len(holders) != 3 {
		t.Fatalf("shard holders = %d, want 3", len(holders))
	}
	if !r.layer.RecoverableWithout(writer, id) {
		t.Fatal("all three shards survive, yet the object is not recoverable without the writer")
	}
	r.layer.DropNode(holders[0])
	r.layer.DropNode(holders[1])
	if r.layer.RecoverableWithout(writer, id) {
		t.Error("RecoverableWithout = true with one of three shards left (k = 2)")
	}
	r.layer.DropNode(writer)
	if _, _, err := r.layer.Get(holders[2], id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get with one shard left = %v, want ErrNotFound", err)
	}
}

// ecBladeRig wires EC 2+1 over four small stores backed by a blade.
func ecBladeRig(t *testing.T, capacity int64) (*rig, *dsm.Pool) {
	t.Helper()
	r := newRig(t, Config{Mode: ModeEC, ECData: 2, ECParity: 1}, 4, capacity)
	blade := idgen.Next()
	r.fabric.Register(blade, fabric.Location{Rack: 0, Island: -1})
	pool := dsm.New(r.fabric, blade, 1<<30)
	r.layer.SetDSM(pool)
	return r, pool
}

// TestDeleteFreesSpilledShards: twenty EC objects overflow small stores, so
// eviction spills objects and shards to the blade; deleting every object
// must leave nothing behind, on the blade or in a store.
func TestDeleteFreesSpilledShards(t *testing.T) {
	r, pool := ecBladeRig(t, 10000)
	ids := make([]idgen.ObjectID, 20)
	for i := range ids {
		ids[i] = idgen.Next()
		if err := r.layer.Put(r.nodes[i%len(r.nodes)], ids[i], make([]byte, 4000), "raw"); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Len() == 0 {
		t.Fatal("nothing spilled to the blade; the test needs eviction")
	}
	for _, id := range ids {
		r.layer.Delete(id)
	}
	if pool.Len() != 0 || r.layer.StorageBytes() != 0 {
		t.Errorf("after deleting every object: %d blobs (%d bytes) on the blade, StorageBytes = %d",
			pool.Len(), pool.Used(), r.layer.StorageBytes())
	}
}

// TestReconstructReadsSpilledShard: a shard that eviction spilled to the
// blade still counts toward k when the object is rebuilt.
func TestReconstructReadsSpilledShard(t *testing.T) {
	r, pool := ecBladeRig(t, 4096)
	writer, id := r.nodes[0], idgen.Next()
	payload := bytes.Repeat([]byte("shard"), 800)
	if err := r.layer.Put(writer, id, payload, "arrow"); err != nil {
		t.Fatal(err)
	}
	holders := r.shardHolders(writer, id)
	if len(holders) != 3 {
		t.Fatalf("shard holders = %d, want 3", len(holders))
	}
	// A filler put straight into the first holder's store evicts its shard.
	if err := r.layer.Store(holders[0]).Put(idgen.Next(), make([]byte, 3000), "raw"); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 1 {
		t.Fatalf("blade holds %d blobs, want the one evicted shard", pool.Len())
	}
	r.layer.DropNode(writer)
	r.layer.DropNode(holders[1])
	if !r.layer.RecoverableWithout(idgen.Nil, id) {
		t.Error("RecoverableWithout = false with one shard in a store and one on the blade")
	}
	data, format, err := r.layer.Get(holders[2], id)
	if err != nil {
		t.Fatalf("Get from one stored and one spilled shard: %v", err)
	}
	if !bytes.Equal(data, payload) || format != "arrow" {
		t.Errorf("reconstructed %d bytes, format %q; want %d bytes, arrow", len(data), format, len(payload))
	}
}

// TestShardKeysNeverNameAnObject: shard keys are deterministic, distinct
// for each shard of an object and across objects, and disjoint from every
// ID idgen.Next hands out.
func TestShardKeysNeverNameAnObject(t *testing.T) {
	ids := make(map[idgen.ObjectID]bool)
	for i := 0; i < 1000; i++ {
		ids[idgen.Next()] = true
	}
	keys := make(map[idgen.ObjectID]bool)
	for id := range ids {
		for i := 0; i < 256; i++ {
			key := shardKey(id, i)
			if key != shardKey(id, i) {
				t.Fatalf("shardKey(%s, %d) is not deterministic", id.Short(), i)
			}
			if ids[key] || keys[key] {
				t.Fatalf("shardKey(%s, %d) = %s collides", id.Short(), i, key.Short())
			}
			keys[key] = true
		}
	}
	for i := 0; i < 1000; i++ {
		if id := idgen.Next(); keys[id] {
			t.Fatalf("idgen.Next returned shard key %s", id.Short())
		}
	}
}
