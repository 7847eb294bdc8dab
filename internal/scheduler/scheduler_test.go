package scheduler

import (
	"errors"
	"sync"
	"testing"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// mapLocator is a test ObjectLocator backed by maps.
type mapLocator struct {
	locs  map[idgen.ObjectID][]idgen.NodeID
	sizes map[idgen.ObjectID]int64
}

func (m *mapLocator) Locations(id idgen.ObjectID) []idgen.NodeID { return m.locs[id] }
func (m *mapLocator) Size(id idgen.ObjectID) int64               { return m.sizes[id] }

// ctor is one of the package's two constructors: New (the home is
// oversubscribed, never stolen from) or NewMesh (a full home is stolen from).
type ctor func(Policy, ObjectLocator) *Mesh

// eachConfig runs a placement test against both configurations of the one
// placement engine.
func eachConfig(t *testing.T, fn func(t *testing.T, mk ctor)) {
	t.Helper()
	t.Run("New", func(t *testing.T) { fn(t, New) })
	t.Run("NewMesh", func(t *testing.T) { fn(t, NewMesh) })
}

func addNodes(m *Mesh, n int, backend string, slots int) []idgen.NodeID {
	ids := make([]idgen.NodeID, n)
	for i := range ids {
		ids[i] = idgen.Next()
		m.AddNode(NodeInfo{ID: ids[i], Backend: backend, Slots: slots})
	}
	return ids
}

func cpuSpec() *task.Spec { return task.NewSpec(idgen.Next(), "f", nil, 1) }

func backendSpecs(n int, backend string) []*task.Spec {
	specs := make([]*task.Spec, n)
	for i := range specs {
		specs[i] = cpuSpec()
		specs[i].Backend = backend
	}
	return specs
}

func newMapLocator() *mapLocator {
	return &mapLocator{
		locs:  map[idgen.ObjectID][]idgen.NodeID{},
		sizes: map[idgen.ObjectID]int64{},
	}
}

func TestPickNoNodes(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		if _, err := m.Pick(cpuSpec()); !errors.Is(err, ErrNoNodes) {
			t.Fatalf("Pick on no nodes = %v, want ErrNoNodes", err)
		} else if skaderr.CodeOf(err) != skaderr.FailedPrecondition {
			t.Fatalf("code = %v", skaderr.CodeOf(err))
		}
		addNodes(m, 2, "cpu", 4)
		if _, err := m.Pick(backendSpecs(1, "gpu")[0]); !errors.Is(err, ErrNoNodes) {
			t.Fatalf("Pick wrong backend = %v", err)
		}
	})
}

func TestPickBackendFiltering(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		addNodes(m, 2, "cpu", 4)
		gpus := addNodes(m, 1, "gpu", 4)
		node, err := m.Pick(backendSpecs(1, "gpu")[0])
		if err != nil {
			t.Fatal(err)
		}
		if node != gpus[0] {
			t.Errorf("gpu task placed on %s", node.Short())
		}
	})
}

func TestRoundRobinSpreads(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		nodes := addNodes(m, 4, "cpu", 8)
		counts := map[idgen.NodeID]int{}
		for i := 0; i < 16; i++ {
			node, err := m.Pick(cpuSpec())
			if err != nil {
				t.Fatal(err)
			}
			counts[node]++
		}
		for _, id := range nodes {
			if counts[id] != 4 {
				t.Fatalf("round-robin spread = %v", counts)
			}
			if m.Inflight(id) != 4 {
				t.Fatalf("inflight(%s) = %d", id.Short(), m.Inflight(id))
			}
		}
	})
}

func TestRandomCoversAllNodes(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(Random, nil)
		nodes := addNodes(m, 4, "cpu", 1000)
		counts := map[idgen.NodeID]int{}
		for i := 0; i < 400; i++ {
			node, err := m.Pick(cpuSpec())
			if err != nil {
				t.Fatal(err)
			}
			counts[node]++
		}
		for _, id := range nodes {
			if counts[id] == 0 {
				t.Errorf("node %s never chosen by Random", id.Short())
			}
		}
	})
}

func TestCPUCentricPicksLeastLoaded(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(CPUCentric, nil)
		nodes := addNodes(m, 3, "cpu", 10)
		m.Started(nodes[0])
		m.Started(nodes[0])
		m.Started(nodes[1])
		if node, _ := m.Pick(cpuSpec()); node != nodes[2] {
			t.Fatalf("picked %s, want the idle node", node.Short())
		}
		// Loads are now 2/1/1: the first of the tied least-loaded wins.
		if node, _ := m.Pick(cpuSpec()); node != nodes[1] {
			t.Fatalf("tie picked %s, want the first least-loaded node", node.Short())
		}
	})
}

func TestDataLocalityFollowsBytes(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		loc := newMapLocator()
		m := mk(DataLocality, loc)
		nodes := addNodes(m, 3, "cpu", 10)

		big, small := idgen.Next(), idgen.Next()
		loc.locs[big] = []idgen.NodeID{nodes[2]}
		loc.sizes[big] = 1 << 20
		loc.locs[small] = []idgen.NodeID{nodes[0]}
		loc.sizes[small] = 64

		spec := task.NewSpec(idgen.Next(), "f", []task.Arg{task.RefArg(big), task.RefArg(small)}, 1)
		node, err := m.Pick(spec)
		if err != nil {
			t.Fatal(err)
		}
		if node != nodes[2] {
			t.Errorf("locality picked %s, want the node holding the big input", node.Short())
		}
	})
}

func TestDataLocalityTieBreaksOnLoad(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(DataLocality, newMapLocator())
		nodes := addNodes(m, 2, "cpu", 10)
		for i := 0; i < 3; i++ {
			m.Started(nodes[0])
		}
		node, err := m.Pick(cpuSpec()) // no inputs: all scores zero
		if err != nil {
			t.Fatal(err)
		}
		if node != nodes[1] {
			t.Error("tie should break toward least-loaded node")
		}
	})
}

func TestDeadNodesSkipped(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		ids := addNodes(m, 3, "cpu", 4)
		m.SetAlive(ids[0], false)
		m.SetAlive(ids[1], false)
		for i := 0; i < 8; i++ {
			node, err := m.Pick(cpuSpec())
			if err != nil {
				t.Fatal(err)
			}
			if node != ids[2] {
				t.Fatalf("picked dead node %s", node.Short())
			}
		}
		if m.NodeCount() != 1 {
			t.Fatalf("NodeCount = %d", m.NodeCount())
		}
		m.SetAlive(ids[0], true)
		if m.NodeCount() != 2 {
			t.Error("revived node not counted")
		}
		seen := make(map[idgen.NodeID]bool)
		for i := 0; i < 8; i++ {
			node, _ := m.Pick(cpuSpec())
			seen[node] = true
		}
		if !seen[ids[0]] {
			t.Fatal("revived node never picked")
		}
	})
}

func TestPickNeverFailsOnCapacity(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		addNodes(m, 2, "cpu", 1)
		for i := 0; i < 6; i++ {
			if _, err := m.Pick(cpuSpec()); err != nil {
				t.Fatalf("pick %d: %v (Pick must not fail on capacity)", i, err)
			}
		}
	})
}

func TestInflightAccounting(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		nodes := addNodes(m, 1, "cpu", 4)
		if _, err := m.Pick(cpuSpec()); err != nil {
			t.Fatal(err)
		}
		if got := m.Inflight(nodes[0]); got != 1 {
			t.Errorf("Inflight = %d", got)
		}
		m.Finished(nodes[0])
		if got := m.Inflight(nodes[0]); got != 0 {
			t.Errorf("Inflight after Finished = %d", got)
		}
		m.Finished(nodes[0]) // below zero is clamped
		if got := m.Inflight(nodes[0]); got != 0 {
			t.Errorf("Inflight = %d", got)
		}
	})
}

func TestRemoveNode(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		nodes := addNodes(m, 2, "cpu", 4)
		m.RemoveNode(nodes[0])
		for i := 0; i < 3; i++ {
			node, err := m.Pick(cpuSpec())
			if err != nil {
				t.Fatal(err)
			}
			if node == nodes[0] {
				t.Fatal("removed node chosen")
			}
		}
	})
}

func TestGate(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		addNodes(m, 2, "cpu", 4)
		sentinel := errors.New("quota")
		m.SetGate(func(*task.Spec) error { return sentinel })
		if _, err := m.Pick(cpuSpec()); !errors.Is(err, sentinel) {
			t.Fatalf("gated Pick = %v", err)
		}
		if _, err := m.PickGang([]*task.Spec{cpuSpec()}); !errors.Is(err, sentinel) {
			t.Fatalf("gated PickGang = %v", err)
		}
		m.SetGate(nil)
		if _, err := m.Pick(cpuSpec()); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPickGangDistinctNodes(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		addNodes(m, 4, "gpu", 2)
		placements, err := m.PickGang(backendSpecs(4, "gpu"))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[idgen.NodeID]bool{}
		for _, p := range placements {
			if seen[p] {
				t.Error("gang of 4 on 4 nodes should use distinct nodes")
			}
			seen[p] = true
		}
	})
}

func TestPickGangInsufficientCapacity(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		nodes := addNodes(m, 2, "gpu", 1)
		if _, err := m.PickGang(backendSpecs(3, "gpu")); !errors.Is(err, ErrNoCapacity) {
			t.Errorf("PickGang = %v, want ErrNoCapacity", err)
		}
		for _, id := range nodes {
			if m.Inflight(id) != 0 {
				t.Error("failed gang left reservations")
			}
		}
	})
}

func TestPickGangWrapsWhenFewNodes(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		addNodes(m, 2, "gpu", 4)
		placements, err := m.PickGang(backendSpecs(6, "gpu"))
		if err != nil {
			t.Fatal(err)
		}
		if len(placements) != 6 {
			t.Fatalf("placements = %d", len(placements))
		}
	})
}

func TestPickGangMixedBackendsRejected(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		addNodes(m, 2, "gpu", 4)
		mixed := append(backendSpecs(1, "gpu"), backendSpecs(1, "fpga")...)
		if _, err := m.PickGang(mixed); err == nil {
			t.Error("mixed-backend gang should be rejected")
		}
	})
}

// TestPickGangAtomic: a gang fills the cluster spread over both nodes, a
// gang that cannot fit reserves nothing, and finishing releases every slot.
func TestPickGangAtomic(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		ids := addNodes(m, 2, "cpu", 2)
		placements, err := m.PickGang(backendSpecs(4, "cpu"))
		if err != nil {
			t.Fatal(err)
		}
		if len(placements) != 4 {
			t.Fatalf("placements = %d", len(placements))
		}
		used := make(map[idgen.NodeID]int)
		for _, p := range placements {
			used[p]++
		}
		if len(used) != 2 {
			t.Fatalf("gang not spread: %v", used)
		}
		if _, err := m.PickGang([]*task.Spec{cpuSpec()}); !errors.Is(err, ErrNoCapacity) {
			t.Fatalf("overfull gang = %v", err)
		}
		if got := m.Inflight(ids[0]) + m.Inflight(ids[1]); got != 4 {
			t.Fatalf("inflight after failed gang = %d, want 4 (rollback leaked)", got)
		}
		for _, p := range placements {
			m.Finished(p)
		}
		if got := m.Inflight(ids[0]) + m.Inflight(ids[1]); got != 0 {
			t.Fatalf("inflight after finish = %d", got)
		}
	})
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		RoundRobin: "round-robin", Random: "random",
		CPUCentric: "cpu-centric", DataLocality: "data-locality",
	} {
		if p.String() != want {
			t.Errorf("String = %q, want %q", p.String(), want)
		}
	}
}

func TestAutoscalerScaleUp(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(1, 10))
	if got := a.Observe(50, 4); got != ScaleUp {
		t.Errorf("Observe(50,4) = %v, want ScaleUp", got)
	}
}

func TestAutoscalerRespectsMax(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(1, 4))
	if got := a.Observe(100, 4); got != Hold {
		t.Errorf("Observe at max = %v, want Hold", got)
	}
}

func TestAutoscalerScaleDownNeedsCooldown(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(1, 10))
	if got := a.Observe(0, 4); got != Hold {
		t.Errorf("first low tick = %v, want Hold", got)
	}
	if got := a.Observe(0, 4); got != Hold {
		t.Errorf("second low tick = %v, want Hold", got)
	}
	if got := a.Observe(0, 4); got != ScaleDown {
		t.Errorf("third low tick = %v, want ScaleDown", got)
	}
}

func TestAutoscalerCooldownResetOnLoad(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(1, 10))
	a.Observe(0, 4)
	a.Observe(0, 4)
	a.Observe(4, 4) // load returns: resets the cooldown
	if got := a.Observe(0, 4); got != Hold {
		t.Errorf("low tick after reset = %v, want Hold", got)
	}
}

func TestAutoscalerRespectsMin(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(2, 10))
	for i := 0; i < 10; i++ {
		if got := a.Observe(0, 2); got == ScaleDown {
			t.Fatal("scaled below MinNodes")
		}
	}
}

func TestAutoscalerHistory(t *testing.T) {
	a := NewAutoscaler(DefaultAutoscalerConfig(1, 10))
	a.Observe(50, 1)
	a.Observe(1, 2)
	h := a.History()
	if len(h) != 2 || h[0] != ScaleUp {
		t.Errorf("History = %v", h)
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{Hold: "hold", ScaleUp: "scale-up", ScaleDown: "scale-down"} {
		if a.String() != want {
			t.Errorf("String = %q", a.String())
		}
	}
}

func TestCapacityWatchWakesOnFinished(t *testing.T) {
	eachConfig(t, testCapacityWatchWakesOnFinished)
}

func testCapacityWatchWakesOnFinished(t *testing.T, mk ctor) {
	s := mk(RoundRobin, nil)
	nodes := addNodes(s, 1, "cpu", 1)
	if _, err := s.Pick(cpuSpec()); err != nil {
		t.Fatal(err)
	}
	// Full: the gang cannot place now.
	watch := s.CapacityWatch()
	if _, err := s.PickGang([]*task.Spec{cpuSpec()}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("PickGang on full cluster = %v, want ErrNoCapacity", err)
	}
	select {
	case <-watch:
		t.Fatal("watch fired with no capacity change")
	default:
	}
	s.Finished(nodes[0])
	select {
	case <-watch:
	case <-time.After(time.Second):
		t.Fatal("watch not closed after Finished freed a slot")
	}
	if _, err := s.PickGang([]*task.Spec{cpuSpec()}); err != nil {
		t.Fatalf("PickGang after wakeup: %v", err)
	}
}

func TestCapacityWatchWakesOnNodeUp(t *testing.T) {
	eachConfig(t, testCapacityWatchWakesOnNodeUp)
}

func testCapacityWatchWakesOnNodeUp(t *testing.T, mk ctor) {
	s := mk(RoundRobin, nil)
	nodes := addNodes(s, 1, "cpu", 2)
	s.SetAlive(nodes[0], false)
	watch := s.CapacityWatch()
	s.SetAlive(nodes[0], true)
	select {
	case <-watch:
	case <-time.After(time.Second):
		t.Fatal("watch not closed after node came back up")
	}
	watch = s.CapacityWatch()
	addNodes(s, 1, "cpu", 2)
	select {
	case <-watch:
	case <-time.After(time.Second):
		t.Fatal("watch not closed after AddNode")
	}
}

// TestCapacityWatchNoLostWakeup exercises the watch-then-try-then-wait
// protocol: a wakeup that lands between the failed attempt and the wait
// must still be observed, because the channel was obtained BEFORE trying.
func TestCapacityWatchNoLostWakeup(t *testing.T) {
	eachConfig(t, testCapacityWatchNoLostWakeup)
}

func testCapacityWatchNoLostWakeup(t *testing.T, mk ctor) {
	s := mk(RoundRobin, nil)
	nodes := addNodes(s, 1, "cpu", 1)
	if _, err := s.Pick(cpuSpec()); err != nil {
		t.Fatal(err)
	}
	watch := s.CapacityWatch()
	if _, err := s.PickGang([]*task.Spec{cpuSpec()}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("PickGang = %v, want ErrNoCapacity", err)
	}
	// Capacity frees BEFORE the submitter reaches its wait: the pre-obtained
	// channel is already closed, so the wait returns immediately.
	s.Finished(nodes[0])
	select {
	case <-watch:
	case <-time.After(time.Second):
		t.Fatal("wakeup lost: channel obtained before the attempt was not closed")
	}
}

// TestConcurrentGangsNoLostWakeup: two submitters racing gangs for slots
// that fit only one of them, each following the watch-then-try-then-wait
// protocol, both keep making progress. A gang that fails must have lost to
// one that holds slots and will free them — never to another failing
// gang's transient reservations, whose rollback wakes nobody (the
// interleaving PickGang's mutex rules out; rare enough that this test is a
// guard, not a reproducer).
func TestConcurrentGangsNoLostWakeup(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) {
		m := mk(RoundRobin, nil)
		addNodes(m, 2, "cpu", 2)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for placed := 0; placed < 2000; {
					watch := m.CapacityWatch()
					placements, err := m.PickGang(backendSpecs(3, "cpu"))
					if err == nil {
						placed++
						for _, p := range placements {
							m.Finished(p)
						}
						continue
					}
					if !errors.Is(err, ErrNoCapacity) {
						t.Errorf("PickGang = %v", err)
						return
					}
					select {
					case <-watch:
					case <-time.After(5 * time.Second):
						t.Error("gang waited on capacity nobody was going to free")
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
