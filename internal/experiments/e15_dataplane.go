package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"skadi/internal/caching"
	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
)

func init() { register("e15", E15DataPlane) }

// E15DataPlane measures the parallel caching data plane against its serial
// ancestor (the §2.1 "bedrock" layer, DaeMon-style fine-grained overlapped
// data movement). Three mechanisms, each serial-vs-parallel:
//
//   - Fan-out redundancy writes: a ModeReplicate(3) / EC(4+2) put issues
//     its replica/shard transfers concurrently, so the put pays
//     ~max(transfer) instead of the sum. FanOut=1 reproduces the serial
//     data plane on the same code path.
//   - Fetch coalescing: N concurrent readers of one hot remote key share a
//     single fabric transfer (singleflight), so bytes moved stay flat in
//     the reader count instead of scaling with it.
//   - Chunked pipelined bulk transfer: a large move streams as ~256 KiB
//     chunks that overlap per-chunk latency, paying one link latency plus
//     the bandwidth cost, where per-chunk serial sends pay one latency per
//     chunk.
func E15DataPlane() (*Table, error) {
	t := &Table{
		ID:     "e15",
		Title:  "Serial vs parallel caching data plane (§2.1, E15)",
		Header: []string{"scenario", "serial", "parallel", "ratio"},
	}

	repl, err := timeFanOutPut(caching.Config{Mode: caching.ModeReplicate, Replicas: 3})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, append([]string{"replicate-3 put wall (256 KiB)"}, repl...))

	ec, err := timeFanOutPut(caching.Config{Mode: caching.ModeEC, ECData: 4, ECParity: 2})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, append([]string{"ec-4+2 put wall (256 KiB)"}, ec...))

	for _, readers := range []int{1, 2, 4, 8} {
		moved, err := hotKeyBytes(readers)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("hot-key fabric bytes, %d readers (64 KiB)", readers),
			kib(int64(readers) * 64 << 10), // what N independent fetches would move
			kib(moved),
			fmt.Sprintf("%.2fx", float64(moved)/float64(int64(readers)*64<<10)),
		})
	}

	t.Rows = append(t.Rows, chunkedRow())

	t.Notes = "Expected shape: fan-out puts cost ~max(replica transfer) instead of the sum " +
		"(replicate-3 ≈ ½ serial, ec-4+2 ≈ ⅙ serial at FanOut ≥ 6); hot-key bytes are flat in " +
		"the reader count (singleflight: N readers, 1 transfer); a chunked 8 MiB stream pays 1 " +
		"link latency where 32 serial chunk sends pay 32."
	return t, nil
}

// dataPlaneRig builds a 8-node rack with real (TimeScale=1) fabric delays
// so overlap shows up in wall time.
func dataPlaneRig(cfg caching.Config, latency time.Duration) (*caching.Layer, *fabric.Fabric, []idgen.NodeID, error) {
	f := fabric.New(fabric.Config{
		TimeScale: 1.0,
		Profiles: map[fabric.LinkClass]fabric.LinkProfile{
			fabric.Rack: {Latency: latency, Bandwidth: 3e9},
		},
	})
	layer, err := caching.NewLayer(f, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	nodes := make([]idgen.NodeID, 8)
	for i := range nodes {
		nodes[i] = idgen.Next()
		f.Register(nodes[i], fabric.Location{Rack: 0, Island: -1})
		layer.AddStore(nodes[i], caching.HostDRAM, objectstore.New(1<<30, nil))
	}
	return layer, f, nodes, nil
}

// timeFanOutPut times the same redundancy-mode put with the serial
// (FanOut=1) and parallel (default pool) data plane.
func timeFanOutPut(cfg caching.Config) ([]string, error) {
	const size = 256 << 10
	const iters = 10
	wall := func(fanOut int) (time.Duration, error) {
		c := cfg
		c.FanOut = fanOut
		layer, _, nodes, err := dataPlaneRig(c, 3*time.Millisecond)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := layer.Put(nodes[0], idgen.Next(), make([]byte, size), "raw"); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / iters, nil
	}
	serial, err := wall(1)
	if err != nil {
		return nil, err
	}
	parallel, err := wall(0)
	if err != nil {
		return nil, err
	}
	return []string{
		msec(int64(serial)),
		msec(int64(parallel)),
		fmt.Sprintf("%.2fx", float64(parallel)/float64(serial)),
	}, nil
}

// hotKeyBytes runs N concurrent readers against one remote 64 KiB key and
// returns the logical fabric bytes that actually moved. Logical (pre-
// compression) bytes keep the coalescing measurement independent of the
// rack links' compression policy — the all-zero test payload compresses to
// almost nothing on the wire.
func hotKeyBytes(readers int) (int64, error) {
	layer, f, nodes, err := dataPlaneRig(caching.Config{}, 3*time.Millisecond)
	if err != nil {
		return 0, err
	}
	id := idgen.Next()
	if err := layer.Put(nodes[0], id, make([]byte, 64<<10), "raw"); err != nil {
		return 0, err
	}
	f.ResetStats()
	var wg sync.WaitGroup
	errs := make([]error, readers)
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, errs[i] = layer.Get(nodes[1], id)
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return f.ClassStats(fabric.Rack).LogicalBytes, nil
}

// chunkedRow compares the deterministic cost of moving 8 MiB across the
// core network as 32 serial 256 KiB sends vs one pipelined chunked stream.
func chunkedRow() []string {
	f := fabric.New(fabric.Config{}) // accounting only
	a, b := idgen.Next(), idgen.Next()
	f.Register(a, fabric.Location{Rack: 0, Island: -1})
	f.Register(b, fabric.Location{Rack: 3, Island: -1}) // cross-rack: Core

	// Both endpoints stay registered, so no move below can fail.
	const size = 8 << 20
	ctx := context.Background()
	var serial time.Duration
	for sent := 0; sent < size; sent += fabric.ChunkBytes {
		d, _ := f.Move(ctx, a, b, nil, min(fabric.ChunkBytes, size-sent))
		serial += d
	}
	pipelined, _ := f.Move(ctx, a, b, nil, size)
	return []string{
		"chunked 8 MiB core move (sim)",
		msec(int64(serial)),
		msec(int64(pipelined)),
		fmt.Sprintf("%.2fx", float64(pipelined)/float64(serial)),
	}
}
