package experiments

import (
	"skadi/internal/caching"
	"skadi/internal/dsm"
	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
)

func init() { register("e9", E9CachingTiers) }

// E9CachingTiers reproduces §2.1's caching-layer claim: one KV API over
// host DRAM, device HBM, and disaggregated memory, with the layer hiding
// data location. Reported per value size: the simulated cost of a Get
// served from each tier, and the spill-under-pressure behaviour.
func E9CachingTiers() (*Table, error) {
	t := &Table{
		ID:     "e9",
		Title:  "Caching layer across memory tiers (§2.1 KV API)",
		Header: []string{"value size", "local dram", "remote dram (rack)", "device hbm", "disagg memory"},
	}
	for _, size := range []int{4 << 10, 256 << 10, 4 << 20} {
		row, err := timeTierGets(size)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{kib(int64(size))}, row...))
	}
	t.Notes = "Expected shape: local DRAM ≪ device/rack ≪ disaggregated memory, with the gap " +
		"shrinking as bandwidth dominates latency for large values. All four are one Get call — " +
		"the caching layer hides the tier."
	return t, nil
}

// timeTierGets builds a 4-tier layer and times one Get per tier, in
// simulated nanoseconds.
func timeTierGets(size int) ([]string, error) {
	f := fabric.New(fabric.Config{})
	layer, err := caching.NewLayer(f, caching.Config{})
	if err != nil {
		return nil, err
	}
	reader := idgen.Next()
	remote := idgen.Next()
	dpu := idgen.Next()
	device := idgen.Next()
	blade := idgen.Next()
	f.Register(reader, fabric.Location{Rack: 0, Island: -1})
	f.Register(remote, fabric.Location{Rack: 0, Island: -1})
	f.Register(dpu, fabric.Location{Rack: 0, Island: -1})
	f.Register(device, fabric.Location{Rack: 0, Island: -1, DPU: dpu})
	f.Register(blade, fabric.Location{Rack: 1, Island: -1})

	layer.AddStore(reader, caching.HostDRAM, objectstore.New(1<<30, nil))
	layer.AddStore(remote, caching.HostDRAM, objectstore.New(1<<30, nil))
	layer.AddStore(device, caching.DeviceHBM, objectstore.New(1<<30, nil))
	pool := dsm.New(f, blade, 1<<30)
	layer.SetDSM(pool)

	data := make([]byte, size)
	// Place one copy per tier.
	localID, remoteID, deviceID, dsmID := idgen.Next(), idgen.Next(), idgen.Next(), idgen.Next()
	if err := layer.Put(reader, localID, data, "raw"); err != nil {
		return nil, err
	}
	if err := layer.Put(remote, remoteID, data, "raw"); err != nil {
		return nil, err
	}
	if err := layer.Put(device, deviceID, data, "raw"); err != nil {
		return nil, err
	}
	if err := pool.Write(blade, dsmID, data, "raw"); err != nil {
		return nil, err
	}

	measure := func(get func() error) (string, error) {
		f.ResetStats()
		if err := get(); err != nil {
			return "", err
		}
		return usec(int64(f.TotalStats().SimTime)), nil
	}
	local, err := measure(func() error { _, _, e := layer.Get(reader, localID); return e })
	if err != nil {
		return nil, err
	}
	rem, err := measure(func() error { _, _, e := layer.Get(reader, remoteID); return e })
	if err != nil {
		return nil, err
	}
	dev, err := measure(func() error { _, _, e := layer.Get(reader, deviceID); return e })
	if err != nil {
		return nil, err
	}
	far, err := measure(func() error { _, _, e := pool.Read(reader, dsmID); return e })
	if err != nil {
		return nil, err
	}
	return []string{local, rem, dev, far}, nil
}
