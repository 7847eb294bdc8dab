package transport

import (
	"context"
	"testing"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
)

func benchEcho(_ context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) {
	return p, nil
}

func BenchmarkInProcCall(b *testing.B) {
	for _, size := range []int{64, 64 << 10} {
		b.Run(byteLabel(size), func(b *testing.B) {
			tr := NewInProc(fabric.New(fabric.Config{}))
			defer tr.Close()
			server, client := idgen.Next(), idgen.Next()
			if err := tr.Listen(server, benchEcho); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, size)
			ctx := context.Background()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Call(ctx, client, server, "echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTCPCall(b *testing.B) {
	for _, size := range []int{64, 64 << 10} {
		b.Run(byteLabel(size), func(b *testing.B) {
			tr := NewTCP()
			defer tr.Close()
			server, client := idgen.Next(), idgen.Next()
			if err := tr.Listen(server, benchEcho); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, size)
			ctx := context.Background()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Call(ctx, client, server, "echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeControlMessage(b *testing.B) {
	m := testMsg{Size: 1024, Name: "gpu"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func byteLabel(n int) string {
	if n >= 1024 {
		return "64KiB"
	}
	return "64B"
}
