package raylet

import (
	"context"
	"sync/atomic"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/transport"
)

// DefaultProbeTimeout bounds one gossip probe round trip. Long enough to
// ride out injected chaos delays without convicting a healthy peer, short
// enough that a dead peer costs one tick, not a stall.
const DefaultProbeTimeout = 50 * time.Millisecond

// GossipProber returns a reachability oracle for the failure detector that
// probes over the transport instead of consulting cluster state directly:
// a probe from `from` to `to` succeeds only if a gossip.probe RPC makes
// the round trip. The detector therefore observes exactly the faults data
// traffic does — partitions drop the frame, crashed nodes are unreachable,
// injected chaos verdicts apply — rather than an oracle's opinion of them.
func GossipProber(tr transport.Transport, timeout time.Duration) func(from, to idgen.NodeID) bool {
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	var nonce atomic.Uint64
	return func(from, to idgen.NodeID) bool {
		n := nonce.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		payload := transport.MustEncode(GossipProbeRequest{From: from, Nonce: n})
		resp, err := tr.Call(ctx, from, to, KindGossipProbe, payload)
		if err != nil {
			return false
		}
		var ack GossipProbeAck
		if err := transport.Decode(resp, &ack); err != nil {
			return false
		}
		return ack.Nonce == n && ack.Node == to
	}
}
