package raylet

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/skaderr"
	"skadi/internal/transport"
)

// Head is the cluster's control-plane service (the GCS of Fig. 2's
// centralized scheduler): it hosts the actor records, serves the actor.*
// RPCs raylets use to find an actor and keep its state durable, and is the
// permanent member of the ownership directory's ring, serving own.* RPCs
// for whatever share of it the ring assigns. What an object is, where it
// is, how it was made and why it failed all live on its ownership record.
type Head struct {
	Node idgen.NodeID
	// Table is the ownership directory this head serves: the runtime's
	// *ownership.ShardedTable, which worker raylets serve their own shards
	// of through the same Directory.
	Table ownership.Directory

	actorsMu sync.Mutex
	actors   map[idgen.ActorID]*actorRecord
}

// ActorRecord is the one place that says where an actor lives: its home
// node, and the backend its tasks need. Epoch counts the committed moves:
// a raylet runs a task only on state adopted at the epoch the task was
// sent with.
type ActorRecord struct {
	Actor   idgen.ActorID
	Home    idgen.NodeID
	Backend string
	Epoch   uint64
}

// actorRecord is the head's entry for an actor: its record, beside its
// checkpoint, the only durable copy of its state.
type actorRecord struct {
	ActorRecord
	seq   uint64
	state map[string][]byte
}

// NewHead returns a head service identified by the given node, serving dir.
func NewHead(node idgen.NodeID, dir ownership.Directory) *Head {
	return &Head{
		Node:   node,
		Table:  dir,
		actors: make(map[idgen.ActorID]*actorRecord),
	}
}

// CreateActor writes a new actor's record: it lives on home, at epoch 1,
// and its tasks need backend.
func (h *Head) CreateActor(actor idgen.ActorID, home idgen.NodeID, backend string) {
	h.actorsMu.Lock()
	h.actors[actor] = &actorRecord{ActorRecord: ActorRecord{Actor: actor, Home: home, Backend: backend, Epoch: 1}}
	h.actorsMu.Unlock()
}

// Actor reads an actor's record.
func (h *Head) Actor(actor idgen.ActorID) (ActorRecord, bool) {
	h.actorsMu.Lock()
	defer h.actorsMu.Unlock()
	rec, ok := h.actors[actor]
	if !ok {
		return ActorRecord{}, false
	}
	return rec.ActorRecord, true
}

// Actors lists every actor's record in ID order.
func (h *Head) Actors() []ActorRecord {
	h.actorsMu.Lock()
	out := make([]ActorRecord, 0, len(h.actors))
	for _, rec := range h.actors {
		out = append(out, rec.ActorRecord)
	}
	h.actorsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Actor.Less(out[j].Actor) })
	return out
}

// MoveActor retargets an actor's record from one home to another, only if
// it still names from, and bumps its epoch. Every move goes through this
// compare-and-swap, so of two moves that read the same home at most one
// commits. A record that already names to is left as it is: a repeated
// move succeeds.
func (h *Head) MoveActor(actor idgen.ActorID, from, to idgen.NodeID) error {
	h.actorsMu.Lock()
	defer h.actorsMu.Unlock()
	rec, ok := h.actors[actor]
	if !ok {
		return skaderr.New(skaderr.NotFound, "head: unknown actor %s", actor.Short())
	}
	if rec.Home == to {
		return nil
	}
	if rec.Home != from {
		return skaderr.New(skaderr.FailedPrecondition, "head: actor %s lives on %s, not %s",
			actor.Short(), rec.Home.Short(), from.Short())
	}
	rec.Home = to
	rec.Epoch++
	return nil
}

// Checkpoint stores an actor snapshot if it is newer than the stored one.
// An actor without a record has nowhere to keep it.
func (h *Head) Checkpoint(actor idgen.ActorID, seq uint64, state map[string][]byte) {
	h.actorsMu.Lock()
	defer h.actorsMu.Unlock()
	rec, ok := h.actors[actor]
	if !ok || (rec.state != nil && rec.seq >= seq) {
		return
	}
	rec.seq, rec.state = seq, copyState(state)
}

// Restore returns an actor's latest snapshot (nil if none).
func (h *Head) Restore(actor idgen.ActorID) (uint64, map[string][]byte) {
	resp := h.restore(actor)
	return resp.Seq, resp.State
}

// restore answers actor.restore: the actor's home (nil without a record),
// its epoch and its latest snapshot, read together.
func (h *Head) restore(actor idgen.ActorID) ActorRestoreResponse {
	h.actorsMu.Lock()
	defer h.actorsMu.Unlock()
	rec, ok := h.actors[actor]
	if !ok {
		return ActorRestoreResponse{}
	}
	resp := ActorRestoreResponse{Home: rec.Home, Epoch: rec.Epoch, Seq: rec.seq}
	if rec.state != nil {
		resp.State = copyState(rec.state)
	}
	return resp
}

// copyState deep-copies an actor state map.
func copyState(state map[string][]byte) map[string][]byte {
	cp := make(map[string][]byte, len(state))
	for k, v := range state {
		cp[k] = append([]byte(nil), v...)
	}
	return cp
}

// Start registers the head's RPC handler on the transport.
func (h *Head) Start(tr transport.Transport) error {
	return tr.Listen(h.Node, h.handle)
}

// Handler exposes the RPC handler so a runtime can multiplex the head
// service with a co-located raylet on one node.
func (h *Head) Handler() transport.Handler { return h.handle }

// noSubscribers is the own.ready response of every commit nobody subscribed
// to — all of them outside push resolution — encoded once. Shared and
// read-only: transports and decoders never write into a payload.
var noSubscribers = transport.MustEncode(OwnReadyResponse{})

// ServeOwnership dispatches one own.* RPC against a Directory. It is
// shared between the head service and worker raylets hosting directory
// shards, so every ring member serves a byte-identical protocol. handled
// is false for non-own.* kinds.
func ServeOwnership(ctx context.Context, dir ownership.Directory, kind string, payload []byte) (resp []byte, handled bool, err error) {
	switch kind {
	case KindOwnCreate:
		var req OwnCreateRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		for _, id := range req.IDs {
			if err := dir.CreatePending(id, req.Owner, req.Task); err != nil {
				return nil, true, err
			}
		}
		return nil, true, nil

	case KindOwnReady:
		var req OwnReadyRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		subs, err := dir.MarkReady(req.ID, req.Size, req.Location, req.DeviceID, req.DeviceHandle)
		if err != nil {
			return nil, true, err
		}
		if len(subs) == 0 {
			return noSubscribers, true, nil
		}
		return transport.MustEncode(OwnReadyResponse{Subscribers: subs}), true, nil

	case KindOwnGet:
		var req OwnGetRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		rec, err := dir.Get(req.ID)
		if err != nil {
			return nil, true, err
		}
		return transport.MustEncode(OwnGetResponse{Rec: rec}), true, nil

	case KindOwnWait:
		var req OwnWaitRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		if err := dir.WaitReady(ctx, req.ID); err != nil {
			return nil, true, err
		}
		return nil, true, nil

	case KindOwnSubscribe:
		var req OwnSubscribeRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		ready, rec, err := dir.Subscribe(req.ID, req.Node)
		if err != nil {
			return nil, true, err
		}
		return transport.MustEncode(OwnSubscribeResponse{Ready: ready, Rec: rec}), true, nil

	case KindOwnAddLoc:
		var req OwnAddLocRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		if err := dir.AddLocation(req.ID, req.Node); err != nil {
			return nil, true, err
		}
		return nil, true, nil

	case KindOwnMoveLoc:
		var req OwnMoveLocRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		if err := dir.MoveLocation(req.ID, req.From, req.To); err != nil {
			return nil, true, err
		}
		return nil, true, nil
	}
	return nil, false, nil
}

// ServeGossipProbe answers a failure-detector probe on behalf of node.
// Shared by the head service and worker raylets: every gossip member must
// ack probes, or the detector would convict it.
func ServeGossipProbe(node idgen.NodeID, payload []byte) ([]byte, error) {
	var req GossipProbeRequest
	if err := transport.Decode(payload, &req); err != nil {
		return nil, err
	}
	return transport.Encode(GossipProbeAck{Node: node, Nonce: req.Nonce})
}

// handle dispatches one inbound RPC.
func (h *Head) handle(ctx context.Context, from idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	if resp, handled, err := ServeOwnership(ctx, h.Table, kind, payload); handled {
		return resp, err
	}
	switch kind {
	case KindGossipProbe:
		return ServeGossipProbe(h.Node, payload)
	case KindActorCkpt:
		var req ActorCkptRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		h.Checkpoint(req.Actor, req.Seq, req.State)
		return nil, nil

	case KindActorRestore:
		var req ActorRestoreRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return transport.Encode(h.restore(req.Actor))

	case KindActorMove:
		var req ActorMoveRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return nil, h.MoveActor(req.Actor, req.From, req.To)

	default:
		return nil, fmt.Errorf("head: unknown RPC kind %q", kind)
	}
}
