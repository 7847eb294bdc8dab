package scheduler

import (
	"context"

	"skadi/internal/idgen"
	"skadi/internal/task"
)

// Placer is the placement contract the runtime programs against. *Mesh is
// its one implementation; the interface stays because the benchmark module
// type-asserts Runtime.Sched through it.
type Placer interface {
	// Pick chooses a node for the task and accounts one in-flight task on
	// it; the caller must call Finished when the task completes.
	Pick(spec *task.Spec) (idgen.NodeID, error)
	// PickCtx is Pick with trace annotation.
	PickCtx(ctx context.Context, spec *task.Spec) (idgen.NodeID, error)
	// PickGang atomically places a gang: every task gets a slot or nothing
	// is reserved (ErrNoCapacity).
	PickGang(specs []*task.Spec) ([]idgen.NodeID, error)

	AddNode(info NodeInfo)
	RemoveNode(id idgen.NodeID)
	SetAlive(id idgen.NodeID, alive bool)
	NodeCount() int

	Started(id idgen.NodeID)
	Finished(id idgen.NodeID)
	Inflight(id idgen.NodeID) int

	// CapacityWatch returns a channel closed the next time capacity may
	// have grown; obtain it BEFORE attempting a placement.
	CapacityWatch() <-chan struct{}
	// SetGate installs a placement veto (the tenancy worker-quota check).
	SetGate(gate func(*task.Spec) error)

	SetPolicy(p Policy)
	Policy() Policy
}

var _ Placer = (*Mesh)(nil)
