package raylet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/transport"
	"skadi/internal/wire"
)

// codecCase is one message value through the codec: its encoding and the
// value a decode must reproduce.
type codecCase struct {
	name string
	enc  []byte
	want transport.Message
}

// mk builds a case whose decode reproduces v exactly.
func mk[T any, P interface {
	*T
	transport.Message
}](name string, v T) codecCase {
	return mkWant[T, P](name, v, v)
}

// mkWant builds a case whose decode normalises v to want (an empty slice
// comes back nil).
func mkWant[T any, P interface {
	*T
	transport.Message
}](name string, v, want T) codecCase {
	return codecCase{name: name, enc: transport.MustEncode[T, P](v), want: P(&want)}
}

// gid is a fixed ID whose bytes count up from b, for golden layouts.
func gid(b byte) idgen.ID {
	var id idgen.ID
	for i := range id {
		id[i] = b + byte(i)
	}
	return id
}

var (
	testRecord = ownership.Record{
		ID: gid(0x30), Owner: gid(0x50), State: ownership.Ready, Size: -7, Task: gid(0x60),
		Locations: []idgen.NodeID{gid(0x50), gid(0x52)}, DeviceID: gid(0x70), DeviceHandle: "h",
	}
	testSpec = task.Spec{
		ID: gid(0x01), Job: gid(0x02), Fn: "reduce",
		Args:    []task.Arg{task.ValueArg([]byte("inline")), task.RefArg(gid(0x03)), {}},
		Returns: []idgen.ObjectID{gid(0x04), gid(0x05)}, Backend: "gpu", Duration: 3 * time.Millisecond,
		Owner: gid(0x06), Gang: "g", Actor: gid(0x07), Meta: map[string]string{"shard": "3", "": ""}, Tenant: "acme",
	}
	testState = map[string][]byte{"counter": {0, 0, 0, 9}, "empty": nil}
	// causeRecord is a Lost record with a cause in its decoded form.
	causeRecord = ownership.Record{
		ID: gid(0x30), Owner: gid(0x50), State: ownership.Lost, Task: gid(0x60),
		Cause: skaderr.DecodeWire(byte(skaderr.Cancelled), "task 01 (f): cancelled"),
	}
)

// populatedCases holds one fully populated value of each of the 25 message
// types, in protocol.go order.
func populatedCases() []codecCase {
	return []codecCase{
		mk("ExecRequest", ExecRequest{Spec: testSpec, Epoch: 3}),
		mk("ExecResponse", ExecResponse{ResultSizes: []int64{0, -1, 1 << 40}, StallMicros: 1234}),
		mk("GetRequest", GetRequest{ID: gid(0x12)}),
		mk("GetResponse", GetResponse{Data: []byte("hello"), Format: "raw"}),
		mk("PushRequest", PushRequest{ID: gid(0x20), Data: []byte("hello"), Format: "arrowlite"}),
		mk("DeleteRequest", DeleteRequest{ID: gid(0x13)}),
		mk("OwnCreateRequest", OwnCreateRequest{IDs: []idgen.ObjectID{gid(0x30), gid(0x40)}, Owner: gid(0x50), Task: gid(0x60)}),
		mk("OwnReadyRequest", OwnReadyRequest{ID: gid(0x30), Size: 1 << 20, Location: gid(0x50), DeviceID: gid(0x70), DeviceHandle: "gpu:0/obj"}),
		mk("OwnReadyResponse", OwnReadyResponse{Subscribers: []idgen.NodeID{gid(0x50), gid(0x51)}}),
		mk("OwnGetRequest", OwnGetRequest{ID: gid(0x30)}),
		mk("OwnGetResponse", OwnGetResponse{Rec: testRecord}),
		mk("OwnWaitRequest", OwnWaitRequest{ID: gid(0x14)}),
		mk("OwnSubscribeRequest", OwnSubscribeRequest{ID: gid(0x15), Node: gid(0x16)}),
		mk("OwnSubscribeResponse", OwnSubscribeResponse{Ready: true, Rec: testRecord}),
		mk("OwnAddLocRequest", OwnAddLocRequest{ID: gid(0x17), Node: gid(0x18)}),
		mk("ActorCkptRequest", ActorCkptRequest{Actor: gid(0x19), Seq: 1 << 50, State: testState}),
		mk("ActorRestoreRequest", ActorRestoreRequest{Actor: gid(0x19)}),
		mk("ActorRestoreResponse", ActorRestoreResponse{Home: gid(0x1d), Epoch: 2, Seq: 7, State: testState}),
		mk("ActorMoveRequest", ActorMoveRequest{Actor: gid(0x19), From: gid(0x1b), To: gid(0x1c)}),
		mk("OwnMoveLocRequest", OwnMoveLocRequest{ID: gid(0x1a), From: gid(0x1b), To: gid(0x1c)}),
		mk("GossipProbeRequest", GossipProbeRequest{From: gid(0x50), Nonce: 300}),
		mk("GossipProbeAck", GossipProbeAck{Node: gid(0x51), Nonce: 300}),
		mk("MigrateTransferRequest", MigrateTransferRequest{Actor: gid(0x22), Object: gid(0x23), Dest: gid(0x24)}),
		mk("MigrateTransferResponse", MigrateTransferResponse{Bytes: 1 << 33, Found: true}),
		mk("MigrateInstallRequest", MigrateInstallRequest{Actor: gid(0x25), Seq: 4, State: testState}),
	}
}

// fresh returns a new zero value of the case's message type.
func (cc codecCase) fresh() transport.Message {
	return reflect.New(reflect.TypeOf(cc.want).Elem()).Interface().(transport.Message)
}

// allCases is populatedCases plus, per type, the zero value, and the
// nil-versus-empty forms of every slice, map and bulk field.
func allCases() []codecCase {
	cases := populatedCases()
	for _, cc := range populatedCases() {
		zero := cc.fresh()
		enc := wire.Marshal(zero)
		if push, ok := zero.(*PushRequest); ok {
			push.Data = []byte{} // the 0xA2 layout has no presence byte: nil arrives empty
		}
		cases = append(cases, codecCase{name: cc.name + "/zero", enc: enc, want: zero})
	}
	emptySpec := task.Spec{Args: []task.Arg{}, Returns: []idgen.ObjectID{}, Meta: map[string]string{}}
	return append(cases,
		// Empty slices and byte strings come back nil; an empty map stays a
		// non-nil empty map, so "no checkpoint" (nil State) stays distinct
		// from "checkpoint of an empty state".
		mkWant("ExecRequest/empty", ExecRequest{Spec: emptySpec}, ExecRequest{Spec: task.Spec{Meta: map[string]string{}}}),
		mkWant("ExecRequest/empty-arg", ExecRequest{Spec: task.Spec{Args: []task.Arg{{Value: []byte{}}}}},
			ExecRequest{Spec: task.Spec{Args: []task.Arg{{}}}}),
		mkWant("ExecResponse/empty", ExecResponse{ResultSizes: []int64{}}, ExecResponse{}),
		mkWant("OwnCreateRequest/empty", OwnCreateRequest{IDs: []idgen.ObjectID{}}, OwnCreateRequest{}),
		mkWant("OwnReadyResponse/empty", OwnReadyResponse{Subscribers: []idgen.NodeID{}}, OwnReadyResponse{}),
		mkWant("OwnGetResponse/empty", OwnGetResponse{Rec: ownership.Record{Locations: []idgen.NodeID{}}}, OwnGetResponse{}),
		// A failed object's record carries its cause as code and message.
		mk("OwnGetResponse/cause", OwnGetResponse{Rec: causeRecord}),
		mk("ActorCkptRequest/empty", ActorCkptRequest{State: map[string][]byte{}}),
		mk("ActorRestoreResponse/empty", ActorRestoreResponse{Seq: 1, State: map[string][]byte{}}),
		mk("MigrateInstallRequest/empty", MigrateInstallRequest{State: map[string][]byte{}}),
		// The bulk views keep nil-ness where the layout records it.
		mk("GetResponse/empty", GetResponse{Data: []byte{}, Format: "raw"}),
		mk("GetResponse/1MiB", GetResponse{Data: bytes.Repeat([]byte{7}, 1<<20), Format: "arrow"}),
		mk("PushRequest/4KiB", PushRequest{ID: gid(0x20), Data: bytes.Repeat([]byte("x"), 4096), Format: "arrow"}),
	)
}

// TestCodecCoversEveryMessage pins the table against protocol.go: 25 types,
// each with its own tag byte.
func TestCodecCoversEveryMessage(t *testing.T) {
	types := map[reflect.Type]bool{}
	tags := map[byte]string{}
	for _, cc := range populatedCases() {
		types[reflect.TypeOf(cc.want)] = true
		if other, dup := tags[cc.enc[0]]; dup {
			t.Errorf("%s and %s share tag 0x%02X", cc.name, other, cc.enc[0])
		}
		tags[cc.enc[0]] = cc.name
	}
	if len(types) != 25 {
		t.Errorf("table covers %d message types, protocol.go declares 25", len(types))
	}
}

// TestCodecRoundTrip sends every case through an echo handler on both
// transports and requires the decoded message to equal the original,
// nil-ness included.
func TestCodecRoundTrip(t *testing.T) {
	echo := func(_ context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) { return p, nil }
	for name, tr := range ownParityTransports(t) {
		server, client := idgen.Next(), idgen.Next()
		if err := tr.Listen(server, echo); err != nil {
			t.Fatalf("%s Listen: %v", name, err)
		}
		for _, cc := range allCases() {
			resp, err := tr.Call(context.Background(), client, server, "echo", cc.enc)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cc.name, err)
			}
			out := cc.fresh()
			if err := transport.Decode(resp, out); err != nil {
				t.Fatalf("%s %s: %v", name, cc.name, err)
			}
			if !reflect.DeepEqual(out, cc.want) {
				t.Errorf("%s %s: decoded %+v, want %+v", name, cc.name, out, cc.want)
			}
		}
	}
}

// TestCodecGoldenBytes pins the nine layouts that predate the single codec
// (bulk get/push, own.create/ready/get, gossip probe/ack), the record's
// cause in own.get and own.subscribe replies, and the exec request with its
// actor epoch byte for byte.
func TestCodecGoldenBytes(t *testing.T) {
	golden := map[string]string{
		"ExecRequest":          "c10102030405060708090a0b0c0d0e0f1002030405060708090a0b0c0d0e0f1011067265647563650306696e6c696e65000000000000000000000000000000000000030405060708090a0b0c0d0e0f10111201000000000000000000000000000000000000020405060708090a0b0c0d0e0f1011121305060708090a0b0c0d0e0f101112131403677075809bee02060708090a0b0c0d0e0f10111213141501670708090a0b0c0d0e0f101112131415160102057368617264013300000461636d6503",
		"OwnSubscribeResponse": "c701303132333435363738393a3b3c3d3e3f505152535455565758595a5b5c5d5e5f020d606162636465666768696a6b6c6d6e6f02505152535455565758595a5b5c5d5e5f52535455565758595a5b5c5d5e5f6061707172737475767778797a7b7c7d7e7f016800",
		"OwnGetResponse/cause": "b5303132333435363738393a3b3c3d3e3f505152535455565758595a5b5c5d5e5f0400606162636465666768696a6b6c6d6e6f00000000000000000000000000000000000001167461736b203031202866293a2063616e63656c6c6564",
		"GetResponse":          "a103726177010568656c6c6f",
		"PushRequest":          "a2202122232425262728292a2b2c2d2e2f096172726f776c6974650568656c6c6f",
		"OwnCreateRequest":     "b102303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f",
		"OwnReadyRequest":      "b2303132333435363738393a3b3c3d3e3f80808001505152535455565758595a5b5c5d5e5f707172737475767778797a7b7c7d7e7f096770753a302f6f626a",
		"OwnReadyResponse":     "b302505152535455565758595a5b5c5d5e5f5152535455565758595a5b5c5d5e5f60",
		"OwnGetRequest":        "b4303132333435363738393a3b3c3d3e3f",
		"OwnGetResponse":       "b5303132333435363738393a3b3c3d3e3f505152535455565758595a5b5c5d5e5f020d606162636465666768696a6b6c6d6e6f02505152535455565758595a5b5c5d5e5f52535455565758595a5b5c5d5e5f6061707172737475767778797a7b7c7d7e7f016800",
		"GossipProbeRequest":   "b6505152535455565758595a5b5c5d5e5fac02",
		"GossipProbeAck":       "b75152535455565758595a5b5c5d5e5f60ac02",
	}
	seen := 0
	for _, cc := range allCases() {
		if want, ok := golden[cc.name]; ok {
			seen++
			if got := hex.EncodeToString(cc.enc); got != want {
				t.Errorf("%s layout changed:\n got %s\nwant %s", cc.name, got, want)
			}
		}
	}
	if seen != len(golden) {
		t.Errorf("checked %d golden layouts, want %d", seen, len(golden))
	}
}

// TestCodecBulkViewsAliasInput: GetResponse.Data and PushRequest.Data are
// views of the payload (the zero-copy bulk path); every other decoded byte
// string is a copy that survives the payload being reused.
func TestCodecBulkViewsAliasInput(t *testing.T) {
	scribble := func(b []byte) {
		for i := 1; i < len(b); i++ { // keep the tag
			b[i] = 0xEE
		}
	}
	get := transport.MustEncode(GetResponse{Data: []byte("hello"), Format: "raw"})
	var gr GetResponse
	push := transport.MustEncode(PushRequest{Data: []byte("hello")})
	var pr PushRequest
	ckpt := transport.MustEncode(ActorCkptRequest{State: map[string][]byte{"k": []byte("hello")}})
	var ck ActorCkptRequest
	exec := transport.MustEncode(ExecRequest{Spec: task.Spec{Args: []task.Arg{task.ValueArg([]byte("hello"))}}})
	var ex ExecRequest
	for _, d := range []struct {
		b []byte
		m transport.Message
	}{{get, &gr}, {push, &pr}, {ckpt, &ck}, {exec, &ex}} {
		if err := transport.Decode(d.b, d.m); err != nil {
			t.Fatal(err)
		}
		scribble(d.b)
	}
	if string(gr.Data) == "hello" || string(pr.Data) == "hello" {
		t.Error("bulk Data was copied out of the payload, want a view")
	}
	if string(ck.State["k"]) != "hello" || string(ex.Spec.Args[0].Value) != "hello" {
		t.Error("control-message bytes alias the payload, want copies")
	}
}

// hostileCount is tag + prefix fields + a count of 2^63, which as an int is
// negative.
func hostileCount(tag byte, prefix func(*wire.Buffer)) []byte {
	buf := wire.NewBuffer(64)
	buf.Byte(tag)
	if prefix != nil {
		prefix(buf)
	}
	buf.Uvarint(1 << 63)
	return buf.Bytes()
}

// TestCodecHostileCount: a repeated field whose count is ≥ 2^63 must fail
// the decode. At the parent commit the count became a negative int, passed
// the bounds check, and make() panicked — one malformed own.create frame
// crashed a raylet.
func TestCodecHostileCount(t *testing.T) {
	ids := func(n int) func(*wire.Buffer) {
		return func(b *wire.Buffer) {
			for i := 0; i < n; i++ {
				b.Bytes16(gid(byte(i)))
			}
		}
	}
	record := func(b *wire.Buffer) { ids(2)(b); b.Varint(1); b.Varint(64); ids(1)(b) }
	state := func(b *wire.Buffer) { ids(1)(b); b.Uvarint(3); b.Bool(true) }
	frames := []struct {
		name string
		b    []byte
		m    transport.Message
	}{
		{"ExecRequest.Args", hostileCount(0xC1, func(b *wire.Buffer) { ids(2)(b); b.String("f") }), new(ExecRequest)},
		{"ExecRequest.Returns", hostileCount(0xC1, func(b *wire.Buffer) { ids(2)(b); b.String("f"); b.Uvarint(0) }), new(ExecRequest)},
		{"ExecResponse.ResultSizes", hostileCount(0xC2, nil), new(ExecResponse)},
		{"OwnCreateRequest.IDs", hostileCount(0xB1, nil), new(OwnCreateRequest)},
		{"OwnReadyResponse.Subscribers", hostileCount(0xB3, nil), new(OwnReadyResponse)},
		{"OwnGetResponse.Rec.Locations", hostileCount(0xB5, record), new(OwnGetResponse)},
		{"OwnSubscribeResponse.Rec.Locations", hostileCount(0xC7, func(b *wire.Buffer) { b.Bool(true); record(b) }), new(OwnSubscribeResponse)},
		{"ActorCkptRequest.State", hostileCount(0xC9, state), new(ActorCkptRequest)},
		{"ActorRestoreResponse.State", hostileCount(0xCB, func(b *wire.Buffer) { b.Uvarint(3); b.Bool(true) }), new(ActorRestoreResponse)},
		{"MigrateInstallRequest.State", hostileCount(0xD3, state), new(MigrateInstallRequest)},
	}
	for _, f := range frames {
		if err := transport.Decode(f.b, f.m); err == nil {
			t.Errorf("%s: count 2^63 accepted", f.name)
		}
		// The same frame with a count the payload could hold but does not.
		short := append(f.b[:len(f.b)-binary.MaxVarintLen64:len(f.b)-binary.MaxVarintLen64], 3)
		if err := transport.Decode(short, f.m); err == nil {
			t.Errorf("%s: count 3 with no elements accepted", f.name)
		}
	}
}

// TestCodecRejectsGarbage: truncations of every valid encoding, a payload
// of another kind, and noise are errors.
func TestCodecRejectsGarbage(t *testing.T) {
	cases := populatedCases()
	for i, cc := range cases {
		for n := 0; n < len(cc.enc); n++ {
			if err := transport.Decode(cc.enc[:n], cc.fresh()); err == nil {
				t.Errorf("%s: %d-byte truncation of %d accepted", cc.name, n, len(cc.enc))
			}
		}
		other := cases[(i+1)%len(cases)]
		if err := transport.Decode(other.enc, cc.fresh()); err == nil {
			t.Errorf("%s payload decoded as %s", other.name, cc.name)
		}
		if err := transport.Decode([]byte("not a frame"), cc.fresh()); err == nil {
			t.Errorf("%s: noise accepted", cc.name)
		}
	}
}

// elements counts what a decoded message made the codec allocate: every
// slice element, map entry and string byte, recursively.
func elements(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return elements(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += elements(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Len()
		for i := 0; i < v.Len(); i++ {
			n += elements(v.Index(i))
		}
		return n
	case reflect.Map:
		n := v.Len()
		for it := v.MapRange(); it.Next(); {
			n += elements(it.Key()) + elements(it.Value())
		}
		return n
	case reflect.String:
		return v.Len()
	}
	return 0
}

// FuzzDecodeMessage feeds arbitrary bytes to every message kind. Decoding
// must never panic, never build more elements than the input has bytes, and
// whatever it accepts must survive a re-encode. Each kind is seeded with its
// populated frame, that frame cut in half, a hostile element count, and its
// zero value (every presence byte and count at zero).
func FuzzDecodeMessage(f *testing.F) {
	cases := populatedCases()
	for i, cc := range cases {
		f.Add(uint8(i), cc.enc)
		f.Add(uint8(i), cc.enc[:len(cc.enc)/2])
		f.Add(uint8(i), hostileCount(cc.enc[0], nil))
	}
	index := map[reflect.Type]int{}
	for i, cc := range cases {
		f.Add(uint8(i), wire.Marshal(cc.fresh()))
		index[reflect.TypeOf(cc.want)] = i
	}
	// The nil-versus-empty and bulk forms seed their type's edge layouts.
	for _, cc := range allCases()[2*len(cases):] {
		f.Add(uint8(index[reflect.TypeOf(cc.want)]), cc.enc)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		cc := cases[int(kind)%len(cases)]
		m := cc.fresh()
		if err := transport.Decode(data, m); err != nil {
			return
		}
		if n := elements(reflect.ValueOf(m)); n > len(data) {
			t.Fatalf("%s: %d elements decoded from %d bytes", cc.name, n, len(data))
		}
		again := cc.fresh()
		if err := transport.Decode(wire.Marshal(m), again); err != nil {
			t.Fatalf("%s: re-encoded message rejected: %v", cc.name, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%s: re-encode changed the message:\n%+v\n%+v", cc.name, m, again)
		}
	})
}

func BenchmarkGetResponseCodec(b *testing.B) {
	resp := GetResponse{Data: bytes.Repeat([]byte{31}, 1<<20), Format: "arrow"}
	b.ReportAllocs()
	b.SetBytes(int64(len(resp.Data)))
	for i := 0; i < b.N; i++ {
		var out GetResponse
		if err := transport.Decode(transport.MustEncode(resp), &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecRequestCodec(b *testing.B) {
	req := ExecRequest{Spec: testSpec}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out ExecRequest
		if err := transport.Decode(transport.MustEncode(req), &out); err != nil {
			b.Fatal(err)
		}
	}
}
