package raylet

import (
	"context"
	"fmt"
	"sync"

	"skadi/internal/idgen"
	"skadi/internal/lineage"
	"skadi/internal/ownership"
	"skadi/internal/transport"
)

// Head is the cluster's control-plane service (the GCS of Fig. 2's
// centralized scheduler): it hosts the lineage log and the actor-checkpoint
// store, serves the actor.* RPCs raylets use for stateful-function
// durability, and is the permanent member of the ownership directory's
// ring, serving own.* RPCs for whatever share of it the ring assigns.
type Head struct {
	Node idgen.NodeID
	// Table is the ownership directory this head serves: the runtime's
	// *ownership.ShardedTable, which worker raylets serve their own shards
	// of through the same Directory.
	Table   ownership.Directory
	Lineage *lineage.Log

	ckptMu sync.Mutex
	ckpts  map[idgen.ActorID]*actorCkpt
}

type actorCkpt struct {
	seq   uint64
	state map[string][]byte
}

// NewHead returns a head service identified by the given node, serving dir.
func NewHead(node idgen.NodeID, dir ownership.Directory) *Head {
	return &Head{
		Node:    node,
		Table:   dir,
		Lineage: lineage.NewLog(),
		ckpts:   make(map[idgen.ActorID]*actorCkpt),
	}
}

// Checkpoint stores an actor snapshot if it is newer than the stored one.
func (h *Head) Checkpoint(actor idgen.ActorID, seq uint64, state map[string][]byte) {
	h.ckptMu.Lock()
	defer h.ckptMu.Unlock()
	cur, ok := h.ckpts[actor]
	if ok && cur.seq >= seq {
		return
	}
	cp := make(map[string][]byte, len(state))
	for k, v := range state {
		cp[k] = append([]byte(nil), v...)
	}
	h.ckpts[actor] = &actorCkpt{seq: seq, state: cp}
}

// Restore returns an actor's latest snapshot (nil if none).
func (h *Head) Restore(actor idgen.ActorID) (uint64, map[string][]byte) {
	h.ckptMu.Lock()
	defer h.ckptMu.Unlock()
	ck, ok := h.ckpts[actor]
	if !ok {
		return 0, nil
	}
	cp := make(map[string][]byte, len(ck.state))
	for k, v := range ck.state {
		cp[k] = append([]byte(nil), v...)
	}
	return ck.seq, cp
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

	case KindOwnForward:
		var req OwnForwardRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		to, found := dir.ResolveForward(req.ID, req.Stale)
		return transport.MustEncode(OwnForwardResponse{To: to, Found: found}), true, nil
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
		seq, state := h.Restore(req.Actor)
		return transport.Encode(ActorRestoreResponse{Seq: seq, State: state})

	default:
		return nil, fmt.Errorf("head: unknown RPC kind %q", kind)
	}
}
