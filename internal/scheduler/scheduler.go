// Package scheduler implements the control plane of the stateful
// serverless runtime (§2.3): task placement over heterogeneous nodes with
// pluggable policies — including the data-centric (locality-aware)
// scheduling the paper adopts from Whiz — plus gang scheduling for SPMD
// subgraphs and a queue-driven autoscaler.
package scheduler

import (
	"errors"
	"fmt"

	"skadi/internal/idgen"
)

// Policy selects the placement strategy.
type Policy int

// Placement policies.
const (
	// RoundRobin spreads tasks evenly over matching nodes.
	RoundRobin Policy = iota
	// Random places tasks uniformly at random.
	Random
	// CPUCentric models the conventional serverless model: place on the
	// least-loaded node, ignoring data locations entirely (data is always
	// pulled to compute).
	CPUCentric
	// DataLocality places each task where the most input bytes already
	// reside, migrating compute to data (§1 data-plane benefit 1).
	DataLocality
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Random:
		return "random"
	case CPUCentric:
		return "cpu-centric"
	case DataLocality:
		return "data-locality"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Errors returned by the scheduler.
var (
	// ErrNoNodes reports that no live node matches the task's backend.
	ErrNoNodes = errors.New("scheduler: no matching nodes")
	// ErrNoCapacity reports that a gang cannot be placed atomically now.
	ErrNoCapacity = errors.New("scheduler: insufficient capacity for gang")
)

// NodeInfo describes a schedulable node.
type NodeInfo struct {
	ID      idgen.NodeID
	Backend string
	Slots   int
}

// ObjectLocator supplies data-placement information for locality-aware
// policies.
type ObjectLocator interface {
	// Locations returns the nodes holding a full copy of the object.
	Locations(id idgen.ObjectID) []idgen.NodeID
	// Size returns the object's size in bytes (0 if unknown).
	Size(id idgen.ObjectID) int64
}
