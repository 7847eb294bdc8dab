package fabric

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"skadi/internal/idgen"
)

// compressRig registers two endpoints per link class of interest: same
// island (no compression) and different racks (Core, compressed).
func compressRig(t *testing.T) (f *Fabric, islandA, islandB, rackA, rackB idgen.NodeID) {
	t.Helper()
	f = accountingFabric()
	islandA, islandB = idgen.Next(), idgen.Next()
	f.Register(islandA, Location{Rack: 0, Island: 1})
	f.Register(islandB, Location{Rack: 0, Island: 1})
	rackA, rackB = idgen.Next(), idgen.Next()
	f.Register(rackA, Location{Rack: 1, Island: -1})
	f.Register(rackB, Location{Rack: 2, Island: -1})
	return
}

// moved moves a payload with no raw bytes and fails the test on an error.
func moved(t *testing.T, f *Fabric, from, to idgen.NodeID, data []byte) {
	t.Helper()
	if _, err := f.Move(context.Background(), from, to, data, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCompressionPolicy(t *testing.T) {
	f := accountingFabric()
	node := func(loc Location) idgen.NodeID {
		n := idgen.Next()
		f.Register(n, loc)
		return n
	}
	server := node(Location{Rack: 0, Island: -1})
	dpu := node(Location{Rack: 0, Island: -1})
	pairs := map[LinkClass][2]idgen.NodeID{
		Loopback: {server, server},
		Island:   {node(Location{Rack: 1, Island: 2}), node(Location{Rack: 1, Island: 2})},
		DPUHop:   {node(Location{Rack: 0, Island: -1, DPU: dpu}), dpu},
		Rack:     {server, node(Location{Rack: 0, Island: -1})},
		Core:     {server, node(Location{Rack: 4, Island: -1})},
		Durable:  {server, node(Location{Island: -1, Durable: true})},
	}
	data := bytes.Repeat([]byte("abcdefgh"), 8<<10) // 64 KiB, highly repetitive
	for class, want := range map[LinkClass]bool{
		Loopback: false, Island: false, DPUHop: false,
		Rack: true, Core: true, Durable: true,
	} {
		p := pairs[class]
		if got := f.ClassBetween(p[0], p[1]); got != class {
			t.Fatalf("setup: %s pair is %s", class, got)
		}
		moved(t, f, p[0], p[1], data)
		st := f.ClassStats(class)
		if got := st.Bytes < st.LogicalBytes; got != want {
			t.Errorf("%s: compressed = %v (wire %d, logical %d), want %v", class, got, st.Bytes, st.LogicalBytes, want)
		}
	}
}

func TestTransferDataCompressedLink(t *testing.T) {
	f, _, _, rackA, rackB := compressRig(t)
	data := bytes.Repeat([]byte("abcdefgh"), 8<<10) // 64 KiB, highly repetitive
	moved(t, f, rackA, rackB, data)
	st := f.ClassStats(Core)
	if st.LogicalBytes != int64(len(data)) {
		t.Fatalf("logical bytes = %d, want %d", st.LogicalBytes, len(data))
	}
	if st.Bytes >= st.LogicalBytes/2 {
		t.Fatalf("wire bytes = %d, want well under logical %d for repetitive data",
			st.Bytes, st.LogicalBytes)
	}
}

func TestTransferDataUncompressedLink(t *testing.T) {
	f, islandA, islandB, _, _ := compressRig(t)
	data := bytes.Repeat([]byte("abcdefgh"), 8<<10)
	moved(t, f, islandA, islandB, data)
	st := f.ClassStats(Island)
	if st.Bytes != int64(len(data)) || st.LogicalBytes != int64(len(data)) {
		t.Fatalf("island wire/logical = %d/%d, want both %d (no compression on Gen-2 links)",
			st.Bytes, st.LogicalBytes, len(data))
	}
}

func TestTransferDataIncompressiblePayload(t *testing.T) {
	f, _, _, rackA, rackB := compressRig(t)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 64<<10)
	rng.Read(data)
	moved(t, f, rackA, rackB, data)
	st := f.ClassStats(Core)
	// Random bytes don't compress; the fabric must ship them raw rather
	// than charging an inflated block.
	if st.Bytes != int64(len(data)) {
		t.Fatalf("wire bytes = %d, want raw %d for incompressible payload", st.Bytes, len(data))
	}
}

// TestTransferDataBelowMinShipsRaw pins the 4 KiB floor: a compressible
// payload one byte under it ships raw, one at it is compressed.
func TestTransferDataBelowMinShipsRaw(t *testing.T) {
	f, _, _, rackA, rackB := compressRig(t)
	for _, n := range []int{100, compressMinBytes - 1} {
		f.ResetStats()
		moved(t, f, rackA, rackB, make([]byte, n)) // compressible but small
		if st := f.ClassStats(Core); st.Bytes != int64(n) {
			t.Fatalf("%d B: wire bytes = %d, want %d (below the compression floor)", n, st.Bytes, n)
		}
	}
	f.ResetStats()
	moved(t, f, rackA, rackB, make([]byte, compressMinBytes))
	if st := f.ClassStats(Core); st.Bytes >= compressMinBytes {
		t.Fatalf("%d B at the floor: wire bytes = %d, want compressed", compressMinBytes, st.Bytes)
	}
}

func TestTransferDataCompressionLowersCost(t *testing.T) {
	f, _, _, rackA, rackB := compressRig(t)
	raw := New(Config{TimeScale: 0, Compress: NoCompression()})
	raw.Register(rackA, Location{Rack: 1, Island: -1})
	raw.Register(rackB, Location{Rack: 2, Island: -1})
	data := bytes.Repeat([]byte("abcdefgh"), 128<<10) // 1 MiB
	dCompressed, _ := f.Move(context.Background(), rackA, rackB, data, 0)
	dRaw, _ := raw.Move(context.Background(), rackA, rackB, data, 0)
	if dCompressed >= dRaw {
		t.Fatalf("compressed transfer cost %v not below raw %v", dCompressed, dRaw)
	}
}

// TestTransferMessageCtxOverheadRidesRaw checks the raw argument: header
// bytes are charged uncompressed on top of the compressed payload.
func TestTransferMessageCtxOverheadRidesRaw(t *testing.T) {
	f, _, _, rackA, rackB := compressRig(t)
	const overhead = 64
	data := bytes.Repeat([]byte("x"), 32<<10)
	if _, err := f.Move(context.Background(), rackA, rackB, data, overhead); err != nil {
		t.Fatal(err)
	}
	st := f.ClassStats(Core)
	if st.LogicalBytes != int64(len(data)+overhead) {
		t.Fatalf("logical bytes = %d, want %d", st.LogicalBytes, len(data)+overhead)
	}
	if want := int64(f.wireSize(Core, data) + overhead); st.Bytes != want || st.Bytes >= st.LogicalBytes {
		t.Fatalf("wire bytes = %d, want compressed payload + raw header = %d", st.Bytes, want)
	}
	if st.Messages != 1 {
		t.Fatalf("messages = %d, want 1 (one chunk)", st.Messages)
	}
}

func TestTransferDataCtxDepartedEndpoint(t *testing.T) {
	f, _, _, rackA, rackB := compressRig(t)
	f.Unregister(rackB)
	if _, err := f.Move(context.Background(), rackA, rackB, make([]byte, 1024), 0); err == nil {
		t.Fatal("transfer to departed endpoint succeeded")
	}
	if st := f.TotalStats(); st.Messages != 0 {
		t.Fatalf("failed transfer still charged %d messages", st.Messages)
	}
}

func TestResetStatsClearsLogicalBytes(t *testing.T) {
	f, _, _, rackA, rackB := compressRig(t)
	moved(t, f, rackA, rackB, make([]byte, 64<<10))
	f.ResetStats()
	if st := f.TotalStats(); st.Bytes != 0 || st.LogicalBytes != 0 {
		t.Fatalf("ResetStats left wire/logical = %d/%d", st.Bytes, st.LogicalBytes)
	}
}
