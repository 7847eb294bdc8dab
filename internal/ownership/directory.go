package ownership

import (
	"context"

	"skadi/internal/idgen"
)

// Directory is the ownership-table contract shared by the centralized
// *Table and the decentralized *ShardedTable. The raylet head service and
// the runtime program against this interface, so the control plane can be
// swapped between a head-node monolith and a consistent-hash-sharded
// directory without touching the future-resolution protocols built on top.
type Directory interface {
	// SetCommitGuard installs the residency validator used by MarkReady and
	// AddLocation. Implementations must apply it to shards added later too.
	SetCommitGuard(g CommitGuard)

	CreatePending(id idgen.ObjectID, owner idgen.NodeID, task idgen.TaskID) error
	MarkReady(id idgen.ObjectID, size int64, location idgen.NodeID, deviceID idgen.NodeID, deviceHandle string) ([]idgen.NodeID, error)
	AddLocation(id idgen.ObjectID, node idgen.NodeID) error
	MoveLocation(id idgen.ObjectID, from, to idgen.NodeID) error
	ResolveForward(id idgen.ObjectID, stale idgen.NodeID) (idgen.NodeID, bool)
	Subscribe(id idgen.ObjectID, node idgen.NodeID) (ready bool, rec Record, err error)
	Get(id idgen.ObjectID) (Record, error)
	Records() []Record
	WaitReady(ctx context.Context, id idgen.ObjectID) error
	PendingIDs() []idgen.ObjectID
	AbortPending() []idgen.ObjectID
	RemoveNodeLocations(node idgen.NodeID) []idgen.ObjectID
	MarkLost(id idgen.ObjectID) error
	Settle(id idgen.ObjectID, to State) bool
	Delete(id idgen.ObjectID)
	Len() int
}

// Compile-time checks: both control planes satisfy the contract.
var (
	_ Directory = (*Table)(nil)
	_ Directory = (*ShardedTable)(nil)
)
