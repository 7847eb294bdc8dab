package fabric

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/trace"
)

// accountingFabric returns a Fabric that never delays, for fast tests.
func accountingFabric() *Fabric {
	return New(Config{TimeScale: 0})
}

// sized moves a size-only message (nil payload, size raw bytes) and fails
// the test on an error.
func sized(t *testing.T, f *Fabric, from, to idgen.NodeID, size int) time.Duration {
	t.Helper()
	d, err := f.Move(context.Background(), from, to, nil, size)
	if err != nil {
		t.Fatalf("Move(%d): %v", size, err)
	}
	return d
}

func TestClassBetweenTopology(t *testing.T) {
	f := accountingFabric()
	server1 := idgen.Next()
	server2 := idgen.Next()
	serverFar := idgen.Next()
	dpu := idgen.Next()
	gpuA := idgen.Next()
	gpuB := idgen.Next()
	islandA := idgen.Next()
	islandB := idgen.Next()
	store := idgen.Next()

	f.Register(server1, Location{Rack: 0, Island: -1})
	f.Register(server2, Location{Rack: 0, Island: -1})
	f.Register(serverFar, Location{Rack: 3, Island: -1})
	f.Register(dpu, Location{Rack: 0, Island: -1})
	f.Register(gpuA, Location{Rack: 0, Island: -1, DPU: dpu})
	f.Register(gpuB, Location{Rack: 0, Island: -1, DPU: dpu})
	f.Register(islandA, Location{Rack: 1, Island: 7})
	f.Register(islandB, Location{Rack: 1, Island: 7})
	f.Register(store, Location{Rack: 0, Island: -1, Durable: true})

	cases := []struct {
		name string
		a, b idgen.NodeID
		want LinkClass
	}{
		{"same node", server1, server1, Loopback},
		{"same rack", server1, server2, Rack},
		{"cross rack", server1, serverFar, Core},
		{"device to its dpu", gpuA, dpu, DPUHop},
		{"dpu to its device", dpu, gpuA, DPUHop},
		{"devices behind same dpu", gpuA, gpuB, DPUHop},
		{"tightly coupled island", islandA, islandB, Island},
		{"unregistered endpoint", server1, idgen.Next(), Core},
		{"server to durable storage", server1, store, Durable},
		{"durable storage to a device", store, gpuA, Durable},
		{"unregistered endpoint to durable storage", idgen.Next(), store, Durable},
		{"durable storage to itself", store, store, Loopback},
	}
	for _, tc := range cases {
		if got := f.ClassBetween(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: ClassBetween = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClassBetweenSymmetric(t *testing.T) {
	f := accountingFabric()
	ids := make([]idgen.NodeID, 7)
	dpu := idgen.Next()
	f.Register(dpu, Location{Rack: 0, Island: -1})
	for i := range ids {
		ids[i] = idgen.Next()
		loc := Location{Rack: i % 2, Island: -1, Durable: i == 6}
		if i%3 == 0 {
			loc.DPU = dpu
		}
		if i%2 == 1 {
			loc.Island = 4
		}
		f.Register(ids[i], loc)
	}
	for _, a := range ids {
		for _, b := range ids {
			if f.ClassBetween(a, b) != f.ClassBetween(b, a) {
				t.Errorf("asymmetric class between %s and %s", a.Short(), b.Short())
			}
		}
	}
}

func TestCostModel(t *testing.T) {
	f := accountingFabric()
	a, b := idgen.Next(), idgen.Next()
	f.Register(a, Location{Rack: 0, Island: -1})
	f.Register(b, Location{Rack: 0, Island: -1})

	latOnly := sized(t, f, a, b, 0)
	if latOnly != DefaultProfiles()[Rack].Latency {
		t.Errorf("zero-byte cost = %v, want pure latency %v", latOnly, DefaultProfiles()[Rack].Latency)
	}
	big := sized(t, f, a, b, 3_000_000) // 1ms at 3 GB/s
	if big <= latOnly {
		t.Error("cost should grow with size")
	}
	wantApprox := latOnly + time.Millisecond
	if big < wantApprox-100*time.Microsecond || big > wantApprox+100*time.Microsecond {
		t.Errorf("3MB rack cost = %v, want ≈%v", big, wantApprox)
	}
}

func TestCostMonotoneInSizeProperty(t *testing.T) {
	f := accountingFabric()
	a, b := idgen.Next(), idgen.Next()
	f.Register(a, Location{Rack: 0, Island: -1})
	f.Register(b, Location{Rack: 1, Island: -1})
	prop := func(s1, s2 uint32) bool {
		x, y := int(s1%(1<<24)), int(s2%(1<<24))
		if x > y {
			x, y = y, x
		}
		return sized(t, f, a, b, x) <= sized(t, f, a, b, y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAccounting(t *testing.T) {
	f := accountingFabric()
	a, b, store := idgen.Next(), idgen.Next(), idgen.Next()
	f.Register(a, Location{Rack: 0, Island: -1})
	f.Register(b, Location{Rack: 0, Island: -1})
	f.Register(store, Location{Island: -1, Durable: true})

	sized(t, f, a, b, 100)
	sized(t, f, a, b, 200)
	sized(t, f, a, store, 1000)

	rack := f.ClassStats(Rack)
	if rack.Messages != 2 || rack.Bytes != 300 || rack.LogicalBytes != 300 {
		t.Errorf("rack stats = %+v, want 2 msgs / 300 bytes", rack)
	}
	dur := f.ClassStats(Durable)
	if dur.Messages != 1 || dur.Bytes != 1000 {
		t.Errorf("durable stats = %+v", dur)
	}
	total := f.TotalStats()
	if total.Messages != 3 || total.Bytes != 1300 {
		t.Errorf("total stats = %+v", total)
	}
	if total.SimTime <= 0 {
		t.Error("simulated time should accumulate")
	}

	f.ResetStats()
	if got := f.TotalStats(); got.Messages != 0 || got.Bytes != 0 || got.SimTime != 0 {
		t.Errorf("after reset, stats = %+v", got)
	}
}

func TestDurableIsSlowest(t *testing.T) {
	p := DefaultProfiles()
	for _, c := range []LinkClass{Loopback, Island, DPUHop, Rack, Core} {
		if p[c].Latency >= p[Durable].Latency {
			t.Errorf("%v latency %v should be below durable %v", c, p[c].Latency, p[Durable].Latency)
		}
	}
}

func TestTimeScaleDelays(t *testing.T) {
	f := New(Config{TimeScale: 1.0, Profiles: map[LinkClass]LinkProfile{
		Core: {Latency: 2 * time.Millisecond},
	}})
	a, b := idgen.Next(), idgen.Next() // unregistered → Core
	start := time.Now()
	sized(t, f, a, b, 0)
	if elapsed := time.Since(start); elapsed < 1500*time.Microsecond {
		t.Errorf("Move with TimeScale=1 returned after %v, want ≥ ~2ms", elapsed)
	}
}

func TestZeroTimeScaleFast(t *testing.T) {
	f := accountingFabric()
	a, store := idgen.Next(), idgen.Next()
	f.Register(store, Location{Island: -1, Durable: true})
	start := time.Now()
	for i := 0; i < 1000; i++ {
		sized(t, f, a, store, 1<<20)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("accounting-only fabric too slow: %v", elapsed)
	}
}

// TestInvalidClassClamped checks that an out-of-range link class is
// ignored everywhere it can be named: in the Config maps, by SetSlowFactor,
// and by ClassStats.
func TestInvalidClassClamped(t *testing.T) {
	f := New(Config{
		Profiles: map[LinkClass]LinkProfile{LinkClass(99): {Latency: time.Hour}, Core: DefaultProfiles()[Core]},
		Compress: map[LinkClass]bool{LinkClass(99): true},
	})
	f.SetSlowFactor(LinkClass(99), 5)
	a, b := idgen.Next(), idgen.Next() // unregistered → Core
	if d := sized(t, f, a, b, 0); d != DefaultProfiles()[Core].Latency {
		t.Errorf("core latency = %v, want %v untouched by an invalid class", d, DefaultProfiles()[Core].Latency)
	}
	if got := f.ClassStats(Core).Messages; got != 1 {
		t.Errorf("core msgs = %d, want 1", got)
	}
	if got := f.ClassStats(LinkClass(99)); got != (Stats{}) {
		t.Errorf("ClassStats(invalid) = %+v, want zero", got)
	}
}

func TestLinkClassString(t *testing.T) {
	names := map[LinkClass]string{
		Loopback: "loopback", Island: "island", DPUHop: "dpu-hop",
		Rack: "rack", Core: "core", Durable: "durable",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(c), c.String(), want)
		}
	}
	if LinkClass(42).String() != "link(42)" {
		t.Errorf("unknown class String = %q", LinkClass(42).String())
	}
}

// TestTransferChunkedAccounting checks that one Move counts a message per
// chunk while paying one latency, not one per chunk.
func TestTransferChunkedAccounting(t *testing.T) {
	f := accountingFabric()
	a, b := idgen.Next(), idgen.Next()
	f.Register(a, Location{Rack: 0, Island: -1})
	f.Register(b, Location{Rack: 0, Island: -1})

	const size = 10*ChunkBytes + 1 // 10 chunks + 1 byte → 11 chunks
	d := sized(t, f, a, b, size)
	rack := f.ClassStats(Rack)
	if rack.Messages != 11 {
		t.Errorf("messages = %d, want 11 chunks", rack.Messages)
	}
	if rack.Bytes != size {
		t.Errorf("bytes = %d, want %d", rack.Bytes, size)
	}
	// Pipelined: one latency + size/bandwidth — NOT 11 latencies.
	if want := f.cost(Rack, size); d != want {
		t.Errorf("chunked duration = %v, want pipelined %v", d, want)
	}
	if rack.SimTime != d {
		t.Errorf("sim time = %v, want %v", rack.SimTime, d)
	}
}

func TestTransferChunkedBeatsSerialChunks(t *testing.T) {
	f := accountingFabric()
	a, b := idgen.Next(), idgen.Next()
	f.Register(a, Location{Rack: 0, Island: -1})
	f.Register(b, Location{Rack: 3, Island: -1}) // Core: 40 µs latency

	const size = 64 * ChunkBytes // 64 chunks
	pipelined := sized(t, f, a, b, size)
	var serial time.Duration
	for sent := 0; sent < size; sent += ChunkBytes {
		serial += sized(t, f, a, b, ChunkBytes)
	}
	// Serial per-chunk moves pay 64 latencies; the pipelined stream pays 1.
	if serial < pipelined+60*DefaultProfiles()[Core].Latency {
		t.Errorf("serial %v should exceed pipelined %v by ~63 latencies", serial, pipelined)
	}
}

// TestTransferChunkedSmallIsOneChunk pins the chunk count per move: at
// least one message, one more per started chunk, counted on the bytes that
// cross the wire (a compressed payload needs fewer chunks than its size).
func TestTransferChunkedSmallIsOneChunk(t *testing.T) {
	f := accountingFabric()
	a, b := idgen.Next(), idgen.Next() // unregistered → Core (compressed)
	for _, tc := range []struct{ size, msgs int64 }{
		{0, 1}, {100, 1}, {ChunkBytes, 1}, {ChunkBytes + 1, 2}, {4 * ChunkBytes, 4},
	} {
		f.ResetStats()
		sized(t, f, a, b, int(tc.size))
		if got := f.ClassStats(Core).Messages; got != tc.msgs {
			t.Errorf("size %d: messages = %d, want %d", tc.size, got, tc.msgs)
		}
	}

	f.ResetStats()
	data := bytes.Repeat([]byte("abcdefgh"), 4*ChunkBytes/8) // 4 chunks raw
	if _, err := f.Move(context.Background(), a, b, data, 0); err != nil {
		t.Fatal(err)
	}
	st := f.ClassStats(Core)
	if want := (st.Bytes + ChunkBytes - 1) / ChunkBytes; st.Messages != want || want >= 4 {
		t.Errorf("compressed 1 MiB: messages = %d over %d wire bytes, want %d (< 4)", st.Messages, st.Bytes, want)
	}
}

func TestTransferChunkedDelaysAndCancel(t *testing.T) {
	f := New(Config{
		TimeScale: 1.0,
		Profiles: map[LinkClass]LinkProfile{
			Core: {Latency: time.Millisecond, Bandwidth: 256e6}, // one chunk ≈ 1 ms
		},
	})
	a, b := idgen.Next(), idgen.Next() // unregistered → Core

	start := time.Now()
	d := sized(t, f, a, b, 4*ChunkBytes) // ≈ 1 ms + 4 ms
	if elapsed := time.Since(start); elapsed < d/2 {
		t.Errorf("chunked move returned after %v, want ≈%v", elapsed, d)
	}

	// A cancelled context skips the remaining chunk delays.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	d, _ = f.Move(ctx, a, b, nil, 64*ChunkBytes) // would be ≈ 65 ms
	if elapsed := time.Since(start); elapsed > d/2 {
		t.Errorf("cancelled chunked move still waited %v of %v", elapsed, d)
	}
	// Accounting is still charged in full: the bytes were in flight.
	if got := f.ClassStats(Core).Bytes; got != 4*ChunkBytes+64*ChunkBytes {
		t.Errorf("bytes = %d, want full accounting", got)
	}
}

func TestUnregister(t *testing.T) {
	f := accountingFabric()
	a, b := idgen.Next(), idgen.Next()
	f.Register(a, Location{Rack: 0, Island: -1})
	f.Register(b, Location{Rack: 0, Island: -1})
	if f.ClassBetween(a, b) != Rack {
		t.Fatal("setup failed")
	}
	f.Unregister(b)
	if got := f.ClassBetween(a, b); got != Core {
		t.Errorf("after Unregister, class = %v, want Core", got)
	}
}

// TestSendCtxDepartedEndpoint is the regression test for the silent
// lost-message bug: a move to an endpoint that was Unregistered used to be
// charged as Core with no error path; it must fail with a typed
// skaderr.Unavailable and charge nothing, sized or with a payload.
func TestSendCtxDepartedEndpoint(t *testing.T) {
	f := accountingFabric()
	a, b := idgen.Next(), idgen.Next()
	f.Register(a, Location{Rack: 0, Island: -1})
	f.Register(b, Location{Rack: 0, Island: -1})
	ctx := context.Background()

	sized(t, f, a, b, 1<<10)
	before := f.TotalStats()

	f.Unregister(b)
	_, err := f.Move(ctx, a, b, nil, 1<<10)
	if code := skaderr.CodeOf(err); code != skaderr.Unavailable {
		t.Fatalf("Move to departed endpoint: code = %v, want Unavailable (err: %v)", code, err)
	}
	if _, err := f.Move(ctx, b, a, nil, 1<<20); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Fatalf("Move from departed endpoint: err = %v, want Unavailable", err)
	}
	if _, err := f.Move(ctx, a, b, make([]byte, 1<<20), 64); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Fatalf("payload Move to departed endpoint: err = %v, want Unavailable", err)
	}
	if after := f.TotalStats(); after != before {
		t.Errorf("refused moves were still charged: %+v -> %+v", before, after)
	}

	// Re-registering clears the departed mark.
	f.Register(b, Location{Rack: 1, Island: -1})
	sized(t, f, a, b, 1<<10)

	// A never-registered endpoint stays on the remote (Core) path: only
	// explicit departure is an error.
	core := f.ClassStats(Core).Messages
	sized(t, f, a, idgen.Next(), 64)
	if got := f.ClassStats(Core).Messages; got != core+1 {
		t.Errorf("never-registered endpoint: core msgs %d -> %d, want +1", core, got)
	}
}

// TestTransferChunkedCtxDepartsMidTransfer unregisters the destination
// while a real-time chunked move is in flight and asserts the move aborts
// with skaderr.Unavailable at a chunk boundary instead of running (and
// succeeding) to completion.
func TestTransferChunkedCtxDepartsMidTransfer(t *testing.T) {
	// 1 MiB at 100 MB/s ≈ 10 ms of real delay, sliced across 4 chunks.
	f := New(Config{
		TimeScale: 1.0,
		Profiles: map[LinkClass]LinkProfile{
			Core: {Latency: 100 * time.Microsecond, Bandwidth: 100e6},
		},
	})
	a, b := idgen.Next(), idgen.Next()
	f.Register(a, Location{Rack: 0, Island: -1})
	f.Register(b, Location{Rack: 1, Island: -1})

	errCh := make(chan error, 1)
	go func() {
		_, err := f.Move(context.Background(), a, b, nil, 1<<20)
		errCh <- err
	}()
	time.Sleep(2 * time.Millisecond)
	f.Unregister(b)

	select {
	case err := <-errCh:
		if skaderr.CodeOf(err) != skaderr.Unavailable {
			t.Fatalf("mid-move departure: err = %v, want Unavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("move did not return")
	}
}

// TestMoveRecordsSpan checks the traced path: a move under a traced
// context leaves one span named for its link class, carrying the
// cost-model duration and, on a compressed link, both byte counts.
func TestMoveRecordsSpan(t *testing.T) {
	f := accountingFabric()
	a, b := idgen.Next(), idgen.Next() // unregistered → Core
	tr := trace.New()
	root := idgen.Next()
	ctx, sp := tr.StartRoot(context.Background(), root, trace.KindXfer, a)
	data := bytes.Repeat([]byte("abcdefgh"), 2*ChunkBytes/8)
	d, err := f.Move(ctx, a, b, data, 64)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans(root)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want root + one move", len(spans))
	}
	mv := spans[1]
	if mv.Kind != trace.KindXfer || mv.Sim != d || mv.Attrs["link"] != "core" || mv.Attrs["logical"] == "" {
		t.Errorf("move span = %+v, want xfer on core with sim %v and wire/logical attrs", mv, d)
	}
}

// TestSortNearest checks the one holder order every reader uses:
// cheapest zero-byte message first, ties broken by ID.
func TestSortNearest(t *testing.T) {
	f := accountingFabric()
	to := idgen.Next()
	rack2, far, rack1, island := idgen.Next(), idgen.Next(), idgen.Next(), idgen.Next()
	f.Register(to, Location{Rack: 0, Island: 3})
	f.Register(rack1, Location{Rack: 0, Island: -1})
	f.Register(rack2, Location{Rack: 0, Island: -1})
	f.Register(far, Location{Rack: 5, Island: -1})
	f.Register(island, Location{Rack: 1, Island: 3})

	nodes := []idgen.NodeID{far, rack1, to, island, rack2}
	f.SortNearest(to, nodes)
	want := []idgen.NodeID{to, island, rack2, rack1, far} // rack2 was generated first
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, nodes[i].Short(), want[i].Short())
		}
	}

	// A slowed link class reorders holders without re-registering them.
	f.SetSlowFactor(Rack, 10)
	f.SortNearest(to, nodes)
	if nodes[len(nodes)-1] != rack1 || nodes[2] != far {
		t.Errorf("with rack ×10 the rack holders should sort after core")
	}
}

// TestMoveAllocatesNothingUntraced pins the hot path's allocation floor:
// an untraced Move over a compressed link, at a control-message, a small
// bulk and a chunked size, and SortNearest over a small holder set make
// no allocations.
func TestMoveAllocatesNothingUntraced(t *testing.T) {
	f := accountingFabric()
	a, b, c, d := idgen.Next(), idgen.Next(), idgen.Next(), idgen.Next()
	for i, n := range []idgen.NodeID{a, b, c, d} {
		f.Register(n, Location{Rack: i / 3, Island: -1})
	}
	if f.ClassBetween(a, b) != Rack {
		t.Fatal("setup: want a rack link")
	}
	ctx := context.Background()
	for _, size := range []int{64, 8 << 10, 1 << 20} {
		data := bytes.Repeat([]byte("skadi-fabric "), size/13+1)[:size]
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := f.Move(ctx, a, b, data, 64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Move(%d B) allocates %.1f times per call, want 0", size, allocs)
		}
	}
	nodes := []idgen.NodeID{d, c, b, a}
	if allocs := testing.AllocsPerRun(100, func() { f.SortNearest(a, nodes) }); allocs != 0 {
		t.Errorf("SortNearest allocates %.1f times per call, want 0", allocs)
	}
}
