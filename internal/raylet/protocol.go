package raylet

import (
	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/task"
	"skadi/internal/wire"
)

// RPC kinds served by raylets.
const (
	// KindExec asks a raylet to execute a task; the response arrives when
	// the task has committed its results.
	KindExec = "raylet.exec"
	// KindGet fetches an object's bytes from a raylet's local store.
	KindGet = "raylet.get"
	// KindPush delivers an object proactively (push-based resolution).
	KindPush = "raylet.push"
	// KindDelete removes an object from the local store.
	KindDelete = "raylet.delete"
	// KindPing checks liveness.
	KindPing = "raylet.ping"
)

// RPC kinds of the live-migration subsystem (internal/migrate). A move is
// one migrate.transfer to the source raylet, which ships the state or bytes
// directly to the destination, so they cross the fabric once.
const (
	// KindMigrateTransfer asks the source raylet to move an actor or a
	// resident object to the destination raylet (migrate.install /
	// raylet.push), retarget its record (actor.move / own.moveloc), and
	// only then drop its own copy.
	KindMigrateTransfer = "migrate.transfer"
	// KindMigrateInstall delivers migrated actor state to the destination
	// raylet (the receiving half of a transfer).
	KindMigrateInstall = "migrate.install"
)

// RPC kinds served by the head (ownership/GCS) service.
const (
	// KindOwnCreate registers pending objects.
	KindOwnCreate = "own.create"
	// KindOwnReady commits an object and returns push subscribers.
	KindOwnReady = "own.ready"
	// KindOwnGet returns an object's ownership record.
	KindOwnGet = "own.get"
	// KindOwnWait blocks until an object is ready or lost.
	KindOwnWait = "own.wait"
	// KindOwnSubscribe registers for a push or learns the object is ready.
	KindOwnSubscribe = "own.subscribe"
	// KindOwnAddLoc records an extra full copy.
	KindOwnAddLoc = "own.addloc"
	// KindActorCkpt persists an actor's state after a task (stateful
	// serverless durability: function state outlives its node).
	KindActorCkpt = "actor.ckpt"
	// KindActorRestore reads an actor's record: its home and its last
	// checkpoint.
	KindActorRestore = "actor.restore"
	// KindActorMove retargets an actor's record from its current home to
	// another node, only if it still names that home.
	KindActorMove = "actor.move"
	// KindOwnMoveLoc atomically retargets a copy from one node to another
	// (live migration cutover). The destination must already hold the bytes.
	KindOwnMoveLoc = "own.moveloc"
)

// RPC kinds of the failure detector. Gossip probe rounds run over the
// same transport as everything else, so a probe observes exactly the
// faults (partitions, crashes, injected drops) that data traffic does.
const (
	// KindGossipProbe checks liveness; any raylet or the head answers
	// with an ack echoing the nonce.
	KindGossipProbe = "gossip.probe"
)

// Every message below is a transport.Message: its Wire method is the only
// place its fields are listed, and transport.Encode/Decode walk it in either
// direction. The leading tag byte names the type, so a payload decoded as the
// wrong kind is an error rather than garbage: 0xA1–0xA2 are the bulk get and
// push, 0xB1–0xB7 the per-task ownership and gossip kinds, 0xC1–0xD3 the
// rest; the 0xA and 0xB layouts are pinned byte for byte by
// TestCodecGoldenBytes. GetResponse.Data and PushRequest.Data decode as
// views of the input buffer (the zero-copy bulk path: the transport hands
// each payload to exactly one consumer); every other decoded field is a copy.

// ExecRequest asks for one task execution. An actor task carries the
// epoch of the actor record its home was read from.
type ExecRequest struct {
	Spec  task.Spec
	Epoch uint64
}

// Wire implements transport.Message.
func (m *ExecRequest) Wire(c *wire.Coder) {
	c.Tag(0xC1)
	m.Spec.Wire(c)
	c.Uvarint(&m.Epoch)
}

// ExecResponse reports a completed task.
type ExecResponse struct {
	// ResultSizes are the committed output sizes, index-aligned with
	// Spec.Returns.
	ResultSizes []int64
	// StallMicros is the time the task spent blocked waiting for its
	// reference arguments to resolve — the metric of experiment E4.
	StallMicros int64
}

// Wire implements transport.Message.
func (m *ExecResponse) Wire(c *wire.Coder) {
	c.Tag(0xC2)
	wire.Slice(c, &m.ResultSizes, 1, (*wire.Coder).Varint)
	c.Varint(&m.StallMicros)
}

// GetRequest fetches object bytes.
type GetRequest struct {
	ID idgen.ObjectID
}

// Wire implements transport.Message.
func (m *GetRequest) Wire(c *wire.Coder) {
	c.Tag(0xC3)
	c.ID(&m.ID)
}

// GetResponse carries object bytes.
type GetResponse struct {
	Data   []byte
	Format string
}

// Wire implements transport.Message. A presence byte keeps a nil Data
// distinct from an empty object.
func (m *GetResponse) Wire(c *wire.Coder) {
	c.Tag(0xA1)
	c.String(&m.Format)
	hasData := m.Data != nil
	c.Bool(&hasData)
	c.LenBytesView(&m.Data)
	if !hasData {
		m.Data = nil
	}
}

// PushRequest delivers object bytes proactively.
type PushRequest struct {
	ID     idgen.ObjectID
	Data   []byte
	Format string
}

// Wire implements transport.Message.
func (m *PushRequest) Wire(c *wire.Coder) {
	c.Tag(0xA2)
	c.ID(&m.ID)
	c.String(&m.Format)
	c.LenBytesView(&m.Data)
}

// DeleteRequest removes an object from a local store.
type DeleteRequest struct {
	ID idgen.ObjectID
}

// Wire implements transport.Message.
func (m *DeleteRequest) Wire(c *wire.Coder) {
	c.Tag(0xC4)
	c.ID(&m.ID)
}

// OwnCreateRequest registers pending objects for a task's returns.
type OwnCreateRequest struct {
	IDs   []idgen.ObjectID
	Owner idgen.NodeID
	Task  idgen.TaskID
}

// Wire implements transport.Message.
func (m *OwnCreateRequest) Wire(c *wire.Coder) {
	c.Tag(0xB1)
	wire.Slice(c, &m.IDs, 16, (*wire.Coder).ID)
	c.ID(&m.Owner)
	c.ID(&m.Task)
}

// OwnReadyRequest commits one object.
type OwnReadyRequest struct {
	ID           idgen.ObjectID
	Size         int64
	Location     idgen.NodeID
	DeviceID     idgen.NodeID
	DeviceHandle string
}

// Wire implements transport.Message.
func (m *OwnReadyRequest) Wire(c *wire.Coder) {
	c.Tag(0xB2)
	c.ID(&m.ID)
	c.Varint(&m.Size)
	c.ID(&m.Location)
	c.ID(&m.DeviceID)
	c.String(&m.DeviceHandle)
}

// OwnReadyResponse lists the nodes subscribed for a push of the object.
type OwnReadyResponse struct {
	Subscribers []idgen.NodeID
}

// Wire implements transport.Message.
func (m *OwnReadyResponse) Wire(c *wire.Coder) {
	c.Tag(0xB3)
	wire.Slice(c, &m.Subscribers, 16, (*wire.Coder).ID)
}

// OwnGetRequest fetches an ownership record.
type OwnGetRequest struct {
	ID idgen.ObjectID
}

// Wire implements transport.Message.
func (m *OwnGetRequest) Wire(c *wire.Coder) {
	c.Tag(0xB4)
	c.ID(&m.ID)
}

// OwnGetResponse carries the record.
type OwnGetResponse struct {
	Rec ownership.Record
}

// Wire implements transport.Message.
func (m *OwnGetResponse) Wire(c *wire.Coder) {
	c.Tag(0xB5)
	m.Rec.Wire(c)
}

// OwnWaitRequest blocks until the object is ready.
type OwnWaitRequest struct {
	ID idgen.ObjectID
}

// Wire implements transport.Message.
func (m *OwnWaitRequest) Wire(c *wire.Coder) {
	c.Tag(0xC5)
	c.ID(&m.ID)
}

// OwnSubscribeRequest subscribes a node for a push of the object.
type OwnSubscribeRequest struct {
	ID   idgen.ObjectID
	Node idgen.NodeID
}

// Wire implements transport.Message.
func (m *OwnSubscribeRequest) Wire(c *wire.Coder) {
	c.Tag(0xC6)
	c.ID(&m.ID)
	c.ID(&m.Node)
}

// OwnSubscribeResponse reports whether the object was already ready (in
// which case the subscriber should pull instead) along with the record.
type OwnSubscribeResponse struct {
	Ready bool
	Rec   ownership.Record
}

// Wire implements transport.Message.
func (m *OwnSubscribeResponse) Wire(c *wire.Coder) {
	c.Tag(0xC7)
	c.Bool(&m.Ready)
	m.Rec.Wire(c)
}

// OwnAddLocRequest records an additional location for an object.
type OwnAddLocRequest struct {
	ID   idgen.ObjectID
	Node idgen.NodeID
}

// Wire implements transport.Message.
func (m *OwnAddLocRequest) Wire(c *wire.Coder) {
	c.Tag(0xC8)
	c.ID(&m.ID)
	c.ID(&m.Node)
}

// ActorCkptRequest persists an actor's state snapshot.
type ActorCkptRequest struct {
	Actor idgen.ActorID
	// Seq orders checkpoints; stale snapshots (lower Seq) are ignored.
	Seq   uint64
	State map[string][]byte
}

// Wire implements transport.Message.
func (m *ActorCkptRequest) Wire(c *wire.Coder) {
	c.Tag(0xC9)
	c.ID(&m.Actor)
	c.Uvarint(&m.Seq)
	wire.Map(c, &m.State, (*wire.Coder).LenBytes)
}

// ActorRestoreRequest fetches an actor's latest checkpoint.
type ActorRestoreRequest struct {
	Actor idgen.ActorID
}

// Wire implements transport.Message.
func (m *ActorRestoreRequest) Wire(c *wire.Coder) {
	c.Tag(0xCA)
	c.ID(&m.Actor)
}

// ActorRestoreResponse returns the actor's home (nil without a record), the
// record's epoch and its checkpoint (nil State if none).
type ActorRestoreResponse struct {
	Home  idgen.NodeID
	Epoch uint64
	Seq   uint64
	State map[string][]byte
}

// Wire implements transport.Message.
func (m *ActorRestoreResponse) Wire(c *wire.Coder) {
	c.Tag(0xCB)
	c.ID(&m.Home)
	c.Uvarint(&m.Epoch)
	c.Uvarint(&m.Seq)
	wire.Map(c, &m.State, (*wire.Coder).LenBytes)
}

// ActorMoveRequest retargets an actor's record from From to To.
type ActorMoveRequest struct {
	Actor    idgen.ActorID
	From, To idgen.NodeID
}

// Wire implements transport.Message.
func (m *ActorMoveRequest) Wire(c *wire.Coder) {
	c.Tag(0xCD)
	c.ID(&m.Actor)
	c.ID(&m.From)
	c.ID(&m.To)
}

// OwnMoveLocRequest retargets one copy (live migration cutover).
type OwnMoveLocRequest struct {
	ID       idgen.ObjectID
	From, To idgen.NodeID
}

// Wire implements transport.Message.
func (m *OwnMoveLocRequest) Wire(c *wire.Coder) {
	c.Tag(0xCC)
	c.ID(&m.ID)
	c.ID(&m.From)
	c.ID(&m.To)
}

// GossipProbeRequest is one failure-detector probe. From is the gossip
// member the probe is issued on behalf of (the transport's from field
// already carries it; duplicating it in the payload keeps the probe
// self-describing in journals and traces).
type GossipProbeRequest struct {
	From  idgen.NodeID
	Nonce uint64
}

// Wire implements transport.Message.
func (m *GossipProbeRequest) Wire(c *wire.Coder) {
	c.Tag(0xB6)
	c.ID(&m.From)
	c.Uvarint(&m.Nonce)
}

// GossipProbeAck answers a probe; Nonce echoes the request.
type GossipProbeAck struct {
	Node  idgen.NodeID
	Nonce uint64
}

// Wire implements transport.Message.
func (m *GossipProbeAck) Wire(c *wire.Coder) {
	c.Tag(0xB7)
	c.ID(&m.Node)
	c.Uvarint(&m.Nonce)
}

// MigrateTransferRequest asks the source raylet to ship an actor's state
// (Actor set) or a resident object (Object set) to Dest.
type MigrateTransferRequest struct {
	Actor  idgen.ActorID
	Object idgen.ObjectID
	Dest   idgen.NodeID
}

// Wire implements transport.Message.
func (m *MigrateTransferRequest) Wire(c *wire.Coder) {
	c.Tag(0xD1)
	c.ID(&m.Actor)
	c.ID(&m.Object)
	c.ID(&m.Dest)
}

// MigrateTransferResponse reports the bytes that crossed the fabric.
type MigrateTransferResponse struct {
	Bytes int64
	// Found is false when the source holds no copy/state to ship (e.g. the
	// object lives only in DSM, or the actor never ran here).
	Found bool
}

// Wire implements transport.Message.
func (m *MigrateTransferResponse) Wire(c *wire.Coder) {
	c.Tag(0xD2)
	c.Varint(&m.Bytes)
	c.Bool(&m.Found)
}

// MigrateInstallRequest delivers actor state to the destination raylet.
type MigrateInstallRequest struct {
	Actor idgen.ActorID
	Seq   uint64
	State map[string][]byte
}

// Wire implements transport.Message.
func (m *MigrateInstallRequest) Wire(c *wire.Coder) {
	c.Tag(0xD3)
	c.ID(&m.Actor)
	c.Uvarint(&m.Seq)
	wire.Map(c, &m.State, (*wire.Coder).LenBytes)
}
