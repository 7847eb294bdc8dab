package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/tenancy"
	"skadi/internal/trace"
	"skadi/internal/wire"
)

// ErrAlreadyListening reports a duplicate Listen for one node.
var ErrAlreadyListening = errors.New("transport: node already listening")

// Frame type tags on the TCP wire.
const (
	frameRequest  = 0
	frameResponse = 1
	// frameCancel tells the server to cancel the handler context of an
	// in-flight request (by reqID) — how caller-side cancellation and
	// deadline expiry cascade across the socket to interrupt remote work.
	frameCancel = 2
)

// Response status codes.
const (
	statusOK     = 0
	statusRemote = 1
)

// Payload codecs on the TCP wire. Request and response payloads ride as a
// codec tag plus lengths in the header, then the body as its own
// scatter/gather segment — never copied into the frame buffer.
const (
	codecRaw = 0
	codecLZ4 = 1
)

// tcpCompressMin is the smallest payload the TCP path tries to compress;
// below this the codec costs more than the bytes it saves on a loopback
// socket.
const tcpCompressMin = 4 << 10

// appendPayloadSection writes the payload's codec tag and lengths into hdr
// and returns the segment to put on the wire after hdr, plus the pooled
// scratch to release once the frame has been written (nil when the payload
// ships raw). Payloads that compress ride as
// codecLZ4 | uvarint(logicalLen) | uvarint(blockLen) | block;
// raw ones as codecRaw | uvarint(len) | bytes.
func appendPayloadSection(hdr *wire.Buffer, payload []byte) (seg, scratch []byte) {
	if len(payload) >= tcpCompressMin {
		b := wire.GetBuf(wire.CompressBound(len(payload)))
		c := wire.AppendCompress(b, payload)
		if len(c) < len(payload) {
			hdr.Byte(codecLZ4)
			hdr.Uvarint(uint64(len(payload)))
			hdr.Uvarint(uint64(len(c)))
			return c, c
		}
		wire.PutBuf(c) // incompressible: ship raw
	}
	hdr.Byte(codecRaw)
	hdr.Uvarint(uint64(len(payload)))
	return payload, nil
}

// readPayloadSection decodes a payload section written by
// appendPayloadSection. The result is freshly allocated — never aliasing
// the (pooled, about-to-be-reused) frame buffer — because payloads escape
// to handlers and callers that may retain them.
func readPayloadSection(r *wire.Reader) ([]byte, error) {
	switch codec := r.Byte(); codec {
	case codecRaw:
		body := r.LenBytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		p := make([]byte, len(body))
		copy(p, body)
		return p, nil
	case codecLZ4:
		logical := r.Uvarint()
		blockLen := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if logical > wire.MaxFrameSize {
			return nil, fmt.Errorf("transport: compressed payload claims %d bytes", logical)
		}
		block := r.Raw(int(blockLen))
		if err := r.Err(); err != nil {
			return nil, err
		}
		p := make([]byte, logical)
		if err := wire.DecompressInto(p, block); err != nil {
			return nil, err
		}
		return p, nil
	default:
		return nil, fmt.Errorf("transport: unknown payload codec %d", codec)
	}
}

// TCP is the socket-backed transport. Each listening node binds its own
// 127.0.0.1 port; the transport keeps a directory of node → address and one
// pooled client connection per destination.
type TCP struct {
	mu         sync.Mutex
	listeners  map[idgen.NodeID]*tcpServer
	dir        map[idgen.NodeID]string
	conns      map[idgen.NodeID]*tcpClient
	interposer Interposer
	closed     bool
}

// NewTCP returns an empty TCP transport.
func NewTCP() *TCP {
	return &TCP{
		listeners: make(map[idgen.NodeID]*tcpServer),
		dir:       make(map[idgen.NodeID]string),
		conns:     make(map[idgen.NodeID]*tcpClient),
	}
}

// SetInterposer installs (or, with nil, removes) the fault interposer
// consulted on every outbound Call — the same seam the in-process transport
// exposes, so one chaos plan drives both wire formats.
func (t *TCP) SetInterposer(i Interposer) {
	t.mu.Lock()
	t.interposer = i
	t.mu.Unlock()
}

// Addr returns the listen address of a node, for wiring directories across
// processes.
func (t *TCP) Addr(node idgen.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.dir[node]
	return addr, ok
}

// Connect adds a remote node's address to the directory, allowing this
// process to call nodes listening in other processes.
func (t *TCP) Connect(node idgen.NodeID, addr string) {
	t.mu.Lock()
	t.dir[node] = addr
	t.mu.Unlock()
}

// Listen implements Transport.
func (t *TCP) Listen(node idgen.NodeID, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, ok := t.listeners[node]; ok {
		return ErrAlreadyListening
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("transport: listen: %w", err)
	}
	srv := &tcpServer{ln: ln, handler: h, node: node}
	t.listeners[node] = srv
	t.dir[node] = ln.Addr().String()
	go srv.acceptLoop()
	return nil
}

// Unlisten implements Transport.
func (t *TCP) Unlisten(node idgen.NodeID) {
	t.mu.Lock()
	srv := t.listeners[node]
	delete(t.listeners, node)
	delete(t.dir, node)
	t.mu.Unlock()
	if srv != nil {
		srv.close()
	}
}

// Call implements Transport.
func (t *TCP) Call(ctx context.Context, from, to idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, unavailable(ErrClosed)
	}
	ip := t.interposer
	client, ok := t.conns[to]
	if ok && client.dead() {
		delete(t.conns, to)
		ok = false
	}
	if !ok {
		addr, found := t.dir[to]
		if !found {
			t.mu.Unlock()
			return nil, unavailable(ErrUnreachable)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.mu.Unlock()
			return nil, unavailable(fmt.Errorf("%w: %v", ErrUnreachable, err))
		}
		client = newTCPClient(conn)
		t.conns[to] = client
	}
	t.mu.Unlock()
	if ip != nil {
		size := len(payload) + messageOverhead
		v := ip.Intercept(from, to, kind, size)
		if v.Drop {
			return nil, unavailable(fmt.Errorf("%w: injected fault (%s)", ErrUnreachable, kind))
		}
		if v.Delay > 0 {
			select {
			case <-time.After(v.Delay):
			case <-ctx.Done():
				ip.Undeliverable(v, from, to, kind, size)
				return nil, callerErr(ctx.Err())
			}
		}
		// Propagate the trace position explicitly (see below). The duplicate
		// rides its own frame concurrently with the original — a real
		// retransmit races its first copy rather than preceding it — and its
		// response is discarded. Running it synchronously would serialize the
		// race away and double the call's latency.
		sc, _ := trace.FromContext(ctx)
		if v.Duplicate {
			go func() { _, _ = client.call(ctx, from, sc, kind, payload) }()
		}
		resp, err := client.call(ctx, from, sc, kind, payload)
		if err != nil && !IsRemote(err) {
			ip.Undeliverable(v, from, to, kind, size)
		} else {
			ip.Delivered(v, from, to, kind, size)
		}
		return resp, err
	}
	// Propagate the trace position explicitly: the remote process cannot
	// see this context, so the TraceID/SpanID pair — and the absolute
	// deadline — ride the frame.
	sc, _ := trace.FromContext(ctx)
	return client.call(ctx, from, sc, kind, payload)
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	listeners := t.listeners
	conns := t.conns
	t.listeners = make(map[idgen.NodeID]*tcpServer)
	t.conns = make(map[idgen.NodeID]*tcpClient)
	t.mu.Unlock()
	for _, srv := range listeners {
		srv.close()
	}
	for _, c := range conns {
		c.close()
	}
	return nil
}

// tcpServer accepts connections for one listening node.
type tcpServer struct {
	ln      net.Listener
	handler Handler
	node    idgen.NodeID

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func (s *tcpServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns = append(s.conns, conn)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *tcpServer) serveConn(conn net.Conn) {
	defer conn.Close()
	var writeMu sync.Mutex
	// In-flight handler contexts by reqID, so a later cancel frame from the
	// caller interrupts the matching handler. recentCancel remembers cancels
	// that arrived for reqIDs with no registered handler: a frameCancel can
	// race ahead of its request's registration, and forgetting it would leave
	// the request running against a caller that already gave up. reqIDs start
	// at 1, so the ring's zero slots never match a real request.
	var cancelMu sync.Mutex
	cancels := make(map[uint64]context.CancelFunc)
	var recentCancel [64]uint64
	recentIdx := 0
	defer func() {
		// Connection torn down: abort whatever is still running for it.
		cancelMu.Lock()
		for _, cancel := range cancels {
			cancel()
		}
		cancelMu.Unlock()
	}()
	for {
		frame, err := wire.ReadFrameBuf(conn)
		if err != nil {
			return
		}
		r := wire.NewReader(frame)
		switch tag := r.Byte(); tag {
		case frameRequest:
		case frameCancel:
			reqID := r.Uint64()
			bad := r.Err() != nil
			wire.PutBuf(frame)
			if bad {
				return
			}
			cancelMu.Lock()
			cancel := cancels[reqID]
			if cancel == nil {
				recentCancel[recentIdx] = reqID
				recentIdx = (recentIdx + 1) % len(recentCancel)
			}
			cancelMu.Unlock()
			if cancel != nil {
				cancel()
			}
			continue
		default:
			wire.PutBuf(frame)
			return // protocol violation
		}
		reqID := r.Uint64()
		from := idgen.ID(r.Bytes16())
		sc := trace.SpanContext{Trace: idgen.ID(r.Bytes16()), Span: idgen.ID(r.Bytes16())}
		deadlineNanos := r.Uint64()
		tenant := r.String()
		kind := r.String()
		// readPayloadSection copies (or decompresses) into fresh storage, so
		// the pooled frame buffer can be released before the handler runs.
		payload, perr := readPayloadSection(r)
		bad := perr != nil || r.Err() != nil
		wire.PutBuf(frame)
		if bad {
			return
		}
		// Rebuild the caller's context on this side of the wire: trace
		// position, absolute deadline, and a cancel hook for cancel frames.
		// The span context re-anchors whenever the frame carried one, so a
		// handler observes the caller's TraceID/SpanID exactly as it would
		// in process.
		hctx := context.Background()
		if sc.IsValid() {
			hctx = trace.ContextWith(hctx, sc)
		}
		if tenant != "" {
			hctx = tenancy.ContextWith(hctx, tenant)
		}
		var hcancel context.CancelFunc
		if deadlineNanos != 0 {
			hctx, hcancel = context.WithDeadline(hctx, time.Unix(0, int64(deadlineNanos)))
		} else {
			hctx, hcancel = context.WithCancel(hctx)
		}
		cancelMu.Lock()
		cancels[reqID] = hcancel
		preCancelled := false
		for _, id := range recentCancel {
			if id == reqID {
				preCancelled = true
				break
			}
		}
		cancelMu.Unlock()
		if preCancelled {
			// The cancel for this request already arrived; start the handler
			// with its context pre-cancelled instead of letting it run against
			// a departed caller.
			hcancel()
		}
		go func() {
			defer func() {
				cancelMu.Lock()
				delete(cancels, reqID)
				cancelMu.Unlock()
				hcancel()
			}()
			resp, herr := s.handler(hctx, from, kind, payload)
			hdr := wire.GetBuffer(64)
			var seg, scratch []byte
			hdr.Byte(frameResponse)
			hdr.Uint64(reqID)
			if herr != nil {
				// The typed code rides next to the message, so errors.Is
				// works on the far side exactly as it does in-process.
				code, msg := skaderr.EncodeWire(herr)
				hdr.Byte(statusRemote)
				hdr.Byte(code)
				hdr.String(msg)
			} else {
				hdr.Byte(statusOK)
				seg, scratch = appendPayloadSection(hdr, resp)
			}
			writeMu.Lock()
			_ = wire.WriteFrameSegments(conn, hdr.Bytes(), seg)
			writeMu.Unlock()
			if scratch != nil {
				wire.PutBuf(scratch)
			}
			wire.PutBuffer(hdr)
		}()
	}
}

func (s *tcpServer) close() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// tcpClient is one pooled client connection with response demultiplexing.
type tcpClient struct {
	conn net.Conn

	writeMu sync.Mutex
	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	err     error
}

type response struct {
	payload []byte
	code    byte
	remote  string
	ok      bool
}

func newTCPClient(conn net.Conn) *tcpClient {
	c := &tcpClient{conn: conn, pending: make(map[uint64]chan response)}
	go c.readLoop()
	return c
}

func (c *tcpClient) readLoop() {
	for {
		frame, err := wire.ReadFrameBuf(c.conn)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrUnreachable, err))
			return
		}
		r := wire.NewReader(frame)
		if tag := r.Byte(); tag != frameResponse {
			wire.PutBuf(frame)
			c.fail(ErrUnreachable)
			return
		}
		reqID := r.Uint64()
		status := r.Byte()
		var resp response
		var perr error
		if status == statusOK {
			// The decoded payload is fresh storage (it outlives the pooled
			// frame: callers retain responses).
			resp.payload, perr = readPayloadSection(r)
			resp.ok = true
		} else {
			resp.code = r.Byte()
			resp.remote = r.String()
		}
		bad := perr != nil || r.Err() != nil
		wire.PutBuf(frame)
		if bad {
			c.fail(ErrUnreachable)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

func (c *tcpClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan response)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	c.conn.Close()
}

func (c *tcpClient) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

func (c *tcpClient) close() { c.fail(ErrClosed) }

func (c *tcpClient) call(ctx context.Context, from idgen.NodeID, sc trace.SpanContext, kind string, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, callerErr(err)
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, unavailable(err)
	}
	c.nextID++
	reqID := c.nextID
	ch := make(chan response, 1)
	c.pending[reqID] = ch
	c.mu.Unlock()

	// The absolute deadline rides the frame (0 = none): the server rebuilds
	// it on its side, so remote work is bounded by the caller's budget.
	var deadlineNanos uint64
	if t, ok := ctx.Deadline(); ok {
		deadlineNanos = uint64(t.UnixNano())
	}
	// The tenant rides beside trace/deadline so multi-tenant attribution
	// (quotas, fair share, accounting) survives the hop like skaderr codes.
	tenant, _ := tenancy.FromContext(ctx)

	// The header rides a pooled buffer; the payload goes on the wire as its
	// own scatter/gather segment, never copied into the frame.
	hdr := wire.GetBuffer(96 + len(kind) + len(tenant))
	hdr.Byte(frameRequest)
	hdr.Uint64(reqID)
	hdr.Bytes16(from)
	hdr.Bytes16(sc.Trace)
	hdr.Bytes16(sc.Span)
	hdr.Uint64(deadlineNanos)
	hdr.String(tenant)
	hdr.String(kind)
	seg, scratch := appendPayloadSection(hdr, payload)

	c.writeMu.Lock()
	err := wire.WriteFrameSegments(c.conn, hdr.Bytes(), seg)
	c.writeMu.Unlock()
	if scratch != nil {
		wire.PutBuf(scratch)
	}
	wire.PutBuffer(hdr)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
		return nil, unavailable(fmt.Errorf("%w: %v", ErrUnreachable, err))
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, unavailable(ErrUnreachable)
		}
		if !resp.ok {
			return nil, skaderr.DecodeWire(resp.code, resp.remote)
		}
		return resp.payload, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
		// Best effort: tell the server to stop working on our behalf. The
		// response, if any still arrives, is dropped by readLoop (the
		// pending entry is gone).
		var cb wire.Buffer
		cb.Byte(frameCancel)
		cb.Uint64(reqID)
		c.writeMu.Lock()
		_ = wire.WriteFrame(c.conn, cb.Bytes())
		c.writeMu.Unlock()
		return nil, callerErr(ctx.Err())
	}
}
