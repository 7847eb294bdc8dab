package baselines

import (
	"bytes"
	"errors"
	"testing"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/skaderr"
)

func passthrough(n int) []Stage {
	stages := make([]Stage, n)
	for i := range stages {
		stages[i] = func(data []byte) []byte { return data }
	}
	return stages
}

func TestDurableStorePutGet(t *testing.T) {
	f := fabric.New(fabric.Config{})
	s := NewDurableStore(f)
	server := idgen.Next()
	f.Register(server, fabric.Location{Rack: 0, Island: -1})
	if err := s.Put(server, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(server, "k")
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get(server, "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing = %v", err)
	}
	puts, gets := s.Ops()
	if puts != 1 || gets != 1 {
		t.Errorf("ops = %d/%d", puts, gets)
	}
	// Both directions charged to the Durable class.
	if f.ClassStats(fabric.Durable).Messages != 2 {
		t.Errorf("durable messages = %d", f.ClassStats(fabric.Durable).Messages)
	}
	// A caller that left the fabric can neither upload nor download.
	f.Unregister(server)
	if err := s.Put(server, "k2", []byte("v")); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Errorf("Put from departed node = %v, want Unavailable", err)
	}
	if _, err := s.Get(server, "k"); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Errorf("Get to departed node = %v, want Unavailable", err)
	}
}

func TestDurableStoreCopies(t *testing.T) {
	f := fabric.New(fabric.Config{})
	s := NewDurableStore(f)
	data := []byte("abc")
	_ = s.Put(idgen.Next(), "k", data)
	data[0] = 'X'
	got, _ := s.Get(idgen.Next(), "k")
	if got[0] == 'X' {
		t.Error("store aliases caller buffer")
	}
}

func TestStatelessBouncesEveryStage(t *testing.T) {
	f := fabric.New(fabric.Config{})
	payload := make([]byte, 1000)
	res, err := RunStateless(f, passthrough(3), payload)
	if err != nil {
		t.Fatal(err)
	}
	// 1 initial put + per stage (1 get + 1 put) = 7 durable transfers of
	// 1000 bytes each.
	if res.DurableBytes != 7000 {
		t.Errorf("DurableBytes = %d, want 7000", res.DurableBytes)
	}
	if res.Messages != 7 {
		t.Errorf("Messages = %d, want 7", res.Messages)
	}
	if res.ReservedSlotSeconds != 0 {
		t.Error("serverless reserves nothing")
	}
}

func TestServerfulStaysInMemory(t *testing.T) {
	f := fabric.New(fabric.Config{})
	payload := make([]byte, 1000)
	res, err := RunServerful(f, passthrough(3), payload, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableBytes != 0 {
		t.Errorf("DurableBytes = %d, want 0", res.DurableBytes)
	}
	if res.ReservedSlotSeconds < 16 {
		t.Errorf("ReservedSlotSeconds = %v, want >= 16 (reserved pool)", res.ReservedSlotSeconds)
	}
}

func TestStatelessSlowerThanServerful(t *testing.T) {
	f := fabric.New(fabric.Config{})
	payload := make([]byte, 1<<20)
	stateless, err := RunStateless(f, passthrough(4), payload)
	if err != nil {
		t.Fatal(err)
	}
	serverful, err := RunServerful(f, passthrough(4), payload, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stateless.Elapsed <= serverful.Elapsed {
		t.Errorf("stateless %v should be slower than serverful %v (durable bounce)",
			stateless.Elapsed, serverful.Elapsed)
	}
}

func TestStagesActuallyTransform(t *testing.T) {
	f := fabric.New(fabric.Config{})
	double := func(data []byte) []byte { return append(data, data...) }
	res, err := RunStateless(f, []Stage{double, double}, []byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	// put 2 + get 2 + put 4 + get 4 + put 8 = 20 bytes durable.
	if res.DurableBytes != 20 {
		t.Errorf("DurableBytes = %d, want 20", res.DurableBytes)
	}
}
