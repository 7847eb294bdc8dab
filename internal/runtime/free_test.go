package runtime

import (
	"context"
	"testing"
	"time"

	"skadi/internal/task"
)

func TestFreeReclaimsEverything(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 3, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	rt.Registry.Register("blob", func(_ *task.Context, _ [][]byte) ([][]byte, error) {
		return [][]byte{make([]byte, 1<<20)}, nil
	})

	ctx := context.Background()
	spec := task.NewSpec(rt.Job(), "blob", nil, 1)
	refs := rt.Submit(spec)
	if _, err := rt.Get(ctx, refs[0]); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	if rt.Layer.StorageBytes() == 0 {
		t.Fatal("setup: nothing stored")
	}

	rt.Free(refs[0])
	if got := rt.Layer.StorageBytes(); got != 0 {
		t.Errorf("StorageBytes = %d after Free, want 0 (driver-cached copy must go too)", got)
	}
	if rt.Head.Table.Len() != 0 {
		t.Errorf("ownership entries = %d after Free", rt.Head.Table.Len())
	}
	if _, ok := rt.Head.Table.Producer(refs[0]); ok {
		t.Error("producer still recorded after Free")
	}
	// Freed objects are gone for good.
	ctx2, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := rt.Get(ctx2, refs[0]); err == nil {
		t.Error("Get after Free should fail")
	}
}

func TestFreeIsIdempotent(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 2, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	id, err := rt.Put([]byte("x"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	rt.Free(id)
	rt.Free(id) // second free is a no-op, not a panic
}
