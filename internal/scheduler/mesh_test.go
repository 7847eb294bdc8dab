package scheduler

import (
	"errors"
	"sync"
	"testing"

	"skadi/internal/idgen"
	"skadi/internal/task"
)

func TestMeshStealFromSaturatedHome(t *testing.T) {
	// DataLocality pins the home to the node holding the input bytes; with
	// the home full, the task must be stolen by a peer with free slots.
	loc := newMapLocator()
	m := NewMesh(DataLocality, loc)
	ids := addNodes(m, 4, "cpu", 1)
	home := ids[0]
	ref := idgen.Next()
	loc.locs[ref] = []idgen.NodeID{home}
	loc.sizes[ref] = 1 << 20
	spec := task.NewSpec(idgen.Next(), "f", []task.Arg{task.RefArg(ref)}, 1)

	first, err := m.Pick(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first != home {
		t.Fatalf("unsaturated pick = %s, want home %s", first.Short(), home.Short())
	}
	if m.StealCount() != 0 {
		t.Fatal("unexpected steal on the unsaturated pick")
	}
	stolen, err := m.Pick(spec) // home now full (slots=1)
	if err != nil {
		t.Fatal(err)
	}
	if stolen == home {
		t.Fatal("second pick landed on the saturated home")
	}
	if m.StealCount() != 1 {
		t.Fatalf("StealCount = %d, want 1", m.StealCount())
	}
	steals := m.Steals()
	if steals[stolen] != 1 {
		t.Fatalf("per-node steal counter = %v", steals)
	}
}

// TestNewOversubscribesHomeWithoutStealing is the other side of the steal
// test: the same saturated home, built with New, keeps the task.
func TestNewOversubscribesHomeWithoutStealing(t *testing.T) {
	loc := newMapLocator()
	m := New(DataLocality, loc)
	ids := addNodes(m, 4, "cpu", 1)
	ref := idgen.Next()
	loc.locs[ref] = []idgen.NodeID{ids[0]}
	loc.sizes[ref] = 1 << 20
	spec := task.NewSpec(idgen.Next(), "f", []task.Arg{task.RefArg(ref)}, 1)
	for i := 0; i < 3; i++ {
		node, err := m.Pick(spec)
		if err != nil {
			t.Fatal(err)
		}
		if node != ids[0] {
			t.Fatalf("pick %d left the home for %s", i, node.Short())
		}
	}
	if m.StealCount() != 0 {
		t.Fatalf("StealCount = %d, want 0", m.StealCount())
	}
}

// churnPlacer runs the satellite churn scenario against any Placer: pickers
// and gang-pickers race membership churn (add/remove/flap), and every
// successful placement must name a node that was registered at some point.
func churnPlacer(t *testing.T, p Placer) {
	t.Helper()
	var mu sync.Mutex
	everKnown := make(map[idgen.NodeID]bool)
	addKnown := func(id idgen.NodeID) {
		mu.Lock()
		everKnown[id] = true
		mu.Unlock()
	}
	base := make([]idgen.NodeID, 4)
	for i := range base {
		base[i] = idgen.Next()
		addKnown(base[i])
		p.AddNode(NodeInfo{ID: base[i], Backend: "cpu", Slots: 4})
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		var extras []idgen.NodeID
		flip := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				for _, id := range extras {
					p.RemoveNode(id)
				}
				return
			default:
			}
			id := idgen.Next()
			addKnown(id)
			p.AddNode(NodeInfo{ID: id, Backend: "cpu", Slots: 2})
			extras = append(extras, id)
			if len(extras) > 3 {
				p.RemoveNode(extras[0])
				extras = extras[1:]
			}
			// Flap a base node dead/alive mid-pick.
			p.SetAlive(base[i%len(base)], flip)
			flip = !flip
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if i%3 == 0 {
					specs := []*task.Spec{cpuSpec(), cpuSpec(), cpuSpec()}
					placements, err := p.PickGang(specs)
					if err != nil {
						if !errors.Is(err, ErrNoCapacity) && !errors.Is(err, ErrNoNodes) {
							t.Errorf("gang churn error: %v", err)
							return
						}
						continue
					}
					mu.Lock()
					for _, pl := range placements {
						if !everKnown[pl] {
							t.Errorf("gang placed on never-registered node %s", pl.Short())
						}
					}
					mu.Unlock()
					for _, pl := range placements {
						p.Finished(pl)
					}
					continue
				}
				node, err := p.Pick(cpuSpec())
				if err != nil {
					if !errors.Is(err, ErrNoNodes) {
						t.Errorf("pick churn error: %v", err)
						return
					}
					continue
				}
				mu.Lock()
				if !everKnown[node] {
					t.Errorf("placed on never-registered node %s", node.Short())
				}
				mu.Unlock()
				p.Finished(node)
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

func TestPlacerChurn(t *testing.T) {
	eachConfig(t, func(t *testing.T, mk ctor) { churnPlacer(t, mk(RoundRobin, nil)) })
}

// TestMeshStealChurn keeps the pool near saturation while membership
// churns, so the steal path itself races add/remove/liveness flaps.
func TestMeshStealChurn(t *testing.T) {
	m := NewMesh(RoundRobin, nil)
	ids := addNodes(m, 3, "cpu", 1)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		flip := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.SetAlive(ids[i%len(ids)], flip)
			flip = !flip
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				node, err := m.Pick(cpuSpec())
				if err != nil {
					if !errors.Is(err, ErrNoNodes) {
						t.Errorf("steal churn error: %v", err)
						return
					}
					continue
				}
				m.Finished(node)
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

// TestMeshStealOrderRanksHolders checks the locality-aware probe order
// directly: candidates holding more of the task's arg bytes come first,
// and disabling locality falls back to all-random (every slot filled).
func TestMeshStealOrderRanksHolders(t *testing.T) {
	loc := newMapLocator()
	m := NewMesh(DataLocality, loc)
	ids := addNodes(m, 6, "cpu", 1)
	big, small := idgen.Next(), idgen.Next()
	loc.locs[big] = []idgen.NodeID{ids[2]}
	loc.sizes[big] = 4 << 20
	loc.locs[small] = []idgen.NodeID{ids[4]}
	loc.sizes[small] = 1 << 20
	spec := task.NewSpec(idgen.Next(), "f",
		[]task.Arg{task.RefArg(big), task.RefArg(small)}, 1)

	cands := m.loadSnap().byBackend["cpu"]
	var home *local
	for _, c := range cands {
		if c.info.ID == ids[0] {
			home = c
		}
	}
	if home == nil {
		t.Fatal("home not in snapshot")
	}

	byNode, _ := m.argBytes(spec)
	order := m.stealOrder(byNode, cands, home)
	if order[0] == nil || order[0].info.ID != ids[2] {
		t.Fatalf("probe[0] = %v, want big-holder %s", order[0], ids[2].Short())
	}
	if order[1] == nil || order[1].info.ID != ids[4] {
		t.Fatalf("probe[1] = %v, want small-holder %s", order[1], ids[4].Short())
	}
	for i, c := range order {
		if c == nil {
			t.Fatalf("probe[%d] unfilled", i)
		}
	}

	m.SetLocalitySteal(false)
	order = m.stealOrder(byNode, cands, home)
	for i, c := range order {
		if c == nil {
			t.Fatalf("random probe[%d] unfilled", i)
		}
	}
}

// TestMeshLocalityStealLandsOnHolder drives the full Pick path: with the
// home saturated, the steal must land on the peer already holding part of
// the task's arg bytes, and the split accounting charges the resident ref
// as local and the rest as remote.
func TestMeshLocalityStealLandsOnHolder(t *testing.T) {
	loc := newMapLocator()
	m := NewMesh(DataLocality, loc)
	ids := addNodes(m, 8, "cpu", 1)
	home, holder := ids[0], ids[5]
	// big pins pickHome to home; small gives holder the best steal rank.
	big, small := idgen.Next(), idgen.Next()
	loc.locs[big] = []idgen.NodeID{home}
	loc.sizes[big] = 8 << 20
	loc.locs[small] = []idgen.NodeID{home, holder}
	loc.sizes[small] = 1 << 20
	args := []task.Arg{task.RefArg(big), task.RefArg(small)}

	first, err := m.Pick(task.NewSpec(idgen.Next(), "f", args, 1))
	if err != nil {
		t.Fatal(err)
	}
	if first != home {
		t.Fatalf("unsaturated pick = %s, want home %s", first.Short(), home.Short())
	}
	stolen, err := m.Pick(task.NewSpec(idgen.Next(), "f", args, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stolen != holder {
		t.Fatalf("steal landed on %s, want arg-holder %s", stolen.Short(), holder.Short())
	}
	localB, remoteB := m.StealBytes()
	if localB != 1<<20 || remoteB != 8<<20 {
		t.Fatalf("StealBytes = (%d, %d), want (%d, %d)", localB, remoteB, 1<<20, 8<<20)
	}
}

// TestMeshStealBytesRemote checks the remote side of the accounting: when
// no candidate holds the args, whatever peer takes the steal pays the full
// arg bytes as remote.
func TestMeshStealBytesRemote(t *testing.T) {
	loc := newMapLocator()
	m := NewMesh(DataLocality, loc)
	ids := addNodes(m, 3, "cpu", 1)
	home := ids[0]
	ref := idgen.Next()
	loc.locs[ref] = []idgen.NodeID{home} // only the home holds it
	loc.sizes[ref] = 2 << 20
	spec := task.NewSpec(idgen.Next(), "f", []task.Arg{task.RefArg(ref)}, 1)

	if first, err := m.Pick(spec); err != nil || first != home {
		t.Fatalf("first pick = %s, %v", first.Short(), err)
	}
	stolen, err := m.Pick(task.NewSpec(idgen.Next(), "f", []task.Arg{task.RefArg(ref)}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stolen == home {
		t.Fatal("steal landed on the saturated home")
	}
	localB, remoteB := m.StealBytes()
	if localB != 0 || remoteB != 2<<20 {
		t.Fatalf("StealBytes = (%d, %d), want (0, %d)", localB, remoteB, 2<<20)
	}
}
