package dsm

import (
	"bytes"
	"errors"
	"testing"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/skaderr"
)

func testPool(capacity int64) (*Pool, *fabric.Fabric, idgen.NodeID) {
	f := fabric.New(fabric.Config{})
	blade := idgen.Next()
	server := idgen.Next()
	f.Register(blade, fabric.Location{Rack: 0, Island: -1})
	f.Register(server, fabric.Location{Rack: 0, Island: -1})
	return New(f, blade, capacity), f, server
}

func TestWriteRead(t *testing.T) {
	p, _, server := testPool(1024)
	id := idgen.Next()
	if err := p.Write(server, id, []byte("remote data"), "arrow"); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, format, err := p.Read(server, id)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, []byte("remote data")) || format != "arrow" {
		t.Errorf("Read = %q, format %q; want remote data, arrow", got, format)
	}
	reads, writes := p.Accesses()
	if reads != 1 || writes != 1 {
		t.Errorf("accesses = %d/%d", reads, writes)
	}
}

func TestWriteCopiesData(t *testing.T) {
	p, _, server := testPool(1024)
	id := idgen.Next()
	data := []byte("mutable")
	if err := p.Write(server, id, data, "raw"); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _, err := p.Read(server, id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == 'X' {
		t.Error("pool aliases caller's buffer; should copy")
	}
}

func TestDuplicateWrite(t *testing.T) {
	p, _, server := testPool(1024)
	id := idgen.Next()
	if err := p.Write(server, id, []byte("a"), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(server, id, []byte("b"), "raw"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Write = %v, want ErrExists", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	p, _, server := testPool(10)
	if err := p.Write(server, idgen.Next(), make([]byte, 8), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(server, idgen.Next(), make([]byte, 8), "raw"); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Write = %v, want ErrOutOfMemory", err)
	}
}

func TestFree(t *testing.T) {
	p, _, server := testPool(10)
	id := idgen.Next()
	if err := p.Write(server, id, make([]byte, 10), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if p.Used() != 0 || p.Len() != 0 {
		t.Errorf("Used=%d Len=%d after Free", p.Used(), p.Len())
	}
	if err := p.Free(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Free = %v, want ErrNotFound", err)
	}
	if _, _, err := p.Read(server, id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Read after Free = %v, want ErrNotFound", err)
	}
}

// TestContains: Contains answers from the pool's own index and charges the
// fabric nothing, so the caching layer can ask it on every lookup.
func TestContains(t *testing.T) {
	p, f, server := testPool(100)
	id := idgen.Next()
	if p.Contains(id) {
		t.Error("Contains before Write")
	}
	if err := p.Write(server, id, []byte("x"), "raw"); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	if !p.Contains(id) {
		t.Error("Contains after Write")
	}
	if n := f.TotalStats().Messages; n != 0 {
		t.Errorf("Contains sent %d fabric messages, want 0", n)
	}
}

func TestFabricCharged(t *testing.T) {
	p, f, server := testPool(1 << 20)
	id := idgen.Next()
	if err := p.Write(server, id, make([]byte, 1000), "raw"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Read(server, id); err != nil {
		t.Fatal(err)
	}
	// Blade and server share a rack; both directions charged.
	stats := f.ClassStats(fabric.Rack)
	if stats.Messages != 2 || stats.Bytes != 2000 {
		t.Errorf("rack stats = %+v, want 2 msgs / 2000 bytes", stats)
	}
}

// TestDepartedBladeRefusesAccess checks that a pool whose blade has left
// the fabric fails typed: a spill does not land (the pool is left as it
// was), and a read cannot bring the bytes back.
func TestDepartedBladeRefusesAccess(t *testing.T) {
	p, f, server := testPool(1 << 20)
	f.Unregister(p.blade)
	if err := p.Write(server, idgen.Next(), make([]byte, 1000), "raw"); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Fatalf("Write to departed blade = %v, want Unavailable", err)
	}
	if _, writes := p.Accesses(); p.Used() != 0 || p.Len() != 0 || writes != 0 {
		t.Errorf("failed Write changed the pool: used %d, len %d, writes %d", p.Used(), p.Len(), writes)
	}

	f.Register(p.blade, fabric.Location{Rack: 0, Island: -1})
	kept := idgen.Next()
	if err := p.Write(server, kept, []byte("landed"), "raw"); err != nil {
		t.Fatal(err)
	}
	f.Unregister(p.blade)
	if _, _, err := p.Read(server, kept); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Errorf("Read from departed blade = %v, want Unavailable", err)
	}
	if p.Contains(kept) {
		t.Error("Contains answered through a departed blade")
	}
}
