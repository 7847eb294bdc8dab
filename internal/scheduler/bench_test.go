package scheduler

import (
	"testing"

	"skadi/internal/idgen"
	"skadi/internal/task"
)

func benchScheduler(b *testing.B, policy Policy, nodes int) *Mesh {
	b.Helper()
	s := New(policy, newMapLocator())
	for i := 0; i < nodes; i++ {
		s.AddNode(NodeInfo{ID: idgen.Next(), Backend: "cpu", Slots: 64})
	}
	return s
}

func BenchmarkPickRoundRobin(b *testing.B) {
	s := benchScheduler(b, RoundRobin, 64)
	spec := task.NewSpec(idgen.Next(), "f", nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node, err := s.Pick(spec)
		if err != nil {
			b.Fatal(err)
		}
		s.Finished(node)
	}
}

func BenchmarkPickDataLocality(b *testing.B) {
	loc := newMapLocator()
	s := New(DataLocality, loc)
	var nodes []idgen.NodeID
	for i := 0; i < 64; i++ {
		id := idgen.Next()
		nodes = append(nodes, id)
		s.AddNode(NodeInfo{ID: id, Backend: "cpu", Slots: 64})
	}
	refs := make([]idgen.ObjectID, 8)
	for i := range refs {
		refs[i] = idgen.Next()
		loc.locs[refs[i]] = []idgen.NodeID{nodes[i*7%len(nodes)]}
		loc.sizes[refs[i]] = 1 << 20
	}
	args := make([]task.Arg, len(refs))
	for i, r := range refs {
		args[i] = task.RefArg(r)
	}
	spec := task.NewSpec(idgen.Next(), "f", args, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node, err := s.Pick(spec)
		if err != nil {
			b.Fatal(err)
		}
		s.Finished(node)
	}
}

// BenchmarkPickLargeCluster is the candidate-cache regression benchmark:
// with many registered nodes across several backends, Pick must not pay an
// O(nodes) scan per placement.
func BenchmarkPickLargeCluster(b *testing.B) {
	s := New(RoundRobin, nil)
	backends := []string{"cpu", "gpu", "dpu", "fpga"}
	for i := 0; i < 1024; i++ {
		s.AddNode(NodeInfo{ID: idgen.Next(), Backend: backends[i%len(backends)], Slots: 64})
	}
	spec := task.NewSpec(idgen.Next(), "f", nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node, err := s.Pick(spec)
		if err != nil {
			b.Fatal(err)
		}
		s.Finished(node)
	}
}

// BenchmarkMeshPickParallel measures the decentralized submit path under
// contention — the lock structure E20 scales out.
func BenchmarkMeshPickParallel(b *testing.B) {
	m := NewMesh(RoundRobin, nil)
	for i := 0; i < 256; i++ {
		m.AddNode(NodeInfo{ID: idgen.Next(), Backend: "cpu", Slots: 64})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		spec := task.NewSpec(idgen.Next(), "f", nil, 1)
		for pb.Next() {
			node, err := m.Pick(spec)
			if err != nil {
				b.Fatal(err)
			}
			m.Finished(node)
		}
	})
}

func BenchmarkPickGang8(b *testing.B) {
	s := benchScheduler(b, RoundRobin, 16)
	specs := make([]*task.Spec, 8)
	for i := range specs {
		specs[i] = task.NewSpec(idgen.Next(), "f", nil, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placements, err := s.PickGang(specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range placements {
			s.Finished(p)
		}
	}
}
