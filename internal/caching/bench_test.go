package caching

import (
	"fmt"
	"testing"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
)

func benchLayer(b *testing.B, cfg Config, nodes int) (*Layer, []idgen.NodeID) {
	b.Helper()
	f := fabric.New(fabric.Config{})
	layer, err := NewLayer(f, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]idgen.NodeID, nodes)
	for i := range ids {
		ids[i] = idgen.Next()
		f.Register(ids[i], fabric.Location{Rack: i % 2, Island: -1})
		layer.AddStore(ids[i], HostDRAM, objectstore.New(1<<40, nil))
	}
	return layer, ids
}

func BenchmarkPutNone64KiB(b *testing.B) {
	layer, nodes := benchLayer(b, Config{}, 4)
	data := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layer.Put(nodes[0], idgen.Next(), data, "raw"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutReplicate2x64KiB(b *testing.B) {
	layer, nodes := benchLayer(b, Config{Mode: ModeReplicate, Replicas: 2}, 4)
	data := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layer.Put(nodes[0], idgen.Next(), data, "raw"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutEC4x2_64KiB(b *testing.B) {
	layer, nodes := benchLayer(b, Config{Mode: ModeEC, ECData: 4, ECParity: 2}, 8)
	data := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layer.Put(nodes[0], idgen.Next(), data, "raw"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetLocalVsRemote(b *testing.B) {
	for _, mode := range []string{"local", "remote"} {
		b.Run(mode, func(b *testing.B) {
			layer, nodes := benchLayer(b, Config{}, 2)
			id := idgen.Next()
			if err := layer.Put(nodes[0], id, make([]byte, 64<<10), "raw"); err != nil {
				b.Fatal(err)
			}
			reader := nodes[0]
			if mode == "remote" {
				reader = nodes[1]
			}
			b.SetBytes(64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := layer.Get(reader, id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkECReconstruct(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			layer, nodes := benchLayer(b, Config{Mode: ModeEC, ECData: 4, ECParity: 2}, 8)
			id := idgen.Next()
			if err := layer.Put(nodes[0], id, make([]byte, size), "raw"); err != nil {
				b.Fatal(err)
			}
			layer.DropNode(nodes[0]) // force reconstruction on every read
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := layer.Get(nodes[1], id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelGet(b *testing.B) {
	b.Run("localSharded", func(b *testing.B) {
		// Distinct keys from many goroutines: exercises the sharded
		// directory and RWMutex read path.
		layer, nodes := benchLayer(b, Config{}, 4)
		const keys = 1024
		ids := make([]idgen.ObjectID, keys)
		for i := range ids {
			ids[i] = idgen.Next()
			if err := layer.Put(nodes[0], ids[i], make([]byte, 4<<10), "raw"); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(4 << 10)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, _, err := layer.Get(nodes[0], ids[i%keys]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
	b.Run("remoteHotKey", func(b *testing.B) {
		// One remote key hammered from many goroutines: exercises the
		// singleflight path (every miss window coalesces).
		layer, nodes := benchLayer(b, Config{}, 4)
		id := idgen.Next()
		if err := layer.Put(nodes[0], id, make([]byte, 64<<10), "raw"); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(64 << 10)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := layer.Get(nodes[1], id); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkParallelPutReplicate3(b *testing.B) {
	layer, nodes := benchLayer(b, Config{Mode: ModeReplicate, Replicas: 3}, 8)
	data := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := layer.Put(nodes[0], idgen.Next(), data, "raw"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkChunkedRemoteGet4MiB(b *testing.B) {
	// A 4 MiB remote hit streams as one fabric.Move (16 chunks of
	// fabric.ChunkBytes).
	layer, nodes := benchLayer(b, Config{}, 2)
	id := idgen.Next()
	if err := layer.Put(nodes[0], id, make([]byte, 4<<20), "raw"); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := layer.Get(nodes[1], id); err != nil {
			b.Fatal(err)
		}
	}
}
