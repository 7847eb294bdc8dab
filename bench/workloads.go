package bench

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"skadi/internal/caching"
	"skadi/internal/idgen"
	"skadi/internal/runtime"
	"skadi/internal/scheduler"
	"skadi/internal/task"
	"skadi/internal/tenancy"
)

// errMismatch marks an op whose output failed its check. It counts in
// failed_frac exactly like an op that returned an error.
var errMismatch = errors.New("output differs from reference")

// workloads maps each workload name to its definition. README.md records why
// each exists; the short form is in BENCHMARK.json.
var workloads = map[string]*workload{
	TaskSeq: {
		name: TaskSeq, clients: 1, warmOps: 4000,
		prepare: prepareEcho, op: opTaskSeq,
	},
	TaskFanoutMesh: {
		name: TaskFanoutMesh, clients: 2, warmOps: 50,
		options: runtime.Options{Decentralized: true},
		prepare: prepareEcho, op: opTaskFanout,
	},
	DagShuffle: {
		name: DagShuffle, clients: 2, warmOps: 60,
		options: runtime.Options{
			Policy:  scheduler.DataLocality,
			Tenancy: tenancy.Options{FairShare: true},
		},
		prepare: prepareDag, op: opDagShuffle,
	},
	ObjectRW: {
		name: ObjectRW, clients: 2, warmOps: 150,
		options: runtime.Options{Caching: caching.Config{Mode: caching.ModeReplicate, Replicas: 2}},
		prepare: prepareObjectRW, op: opObjectRW,
	},
	SQLAnalytics: {
		name: SQLAnalytics, clients: 1, warmOps: 24,
		prepare: prepareSQL, op: opSQL,
	},
}

// ---- task_seq and task_fanout_mesh: echo8 ----

const fnEcho8 = "bench/echo8"

// fanoutWave is the number of tasks one task_fanout_mesh op submits.
const fanoutWave = 64

func prepareEcho(e *env) error {
	e.register(taskFunc{
		name: fnEcho8,
		// echo8 returns its 8-byte sequence number.
		fn: func(_ *task.Context, args [][]byte) ([][]byte, error) {
			return [][]byte{args[0]}, nil
		},
		// A sequence number is op<<6 | index-in-wave (always 0 on task_seq).
		id: func(args [][]byte) (uint64, int) {
			seq := binary.LittleEndian.Uint64(args[0])
			return seq >> 6, int(seq & (fanoutWave - 1))
		},
	})
	return nil
}

func echoSpec(e *env, op uint64, idx int) (*task.Spec, []byte) {
	arg := make([]byte, 8)
	binary.LittleEndian.PutUint64(arg, op<<6|uint64(idx))
	return task.NewSpec(e.rt.Job(), fnEcho8, []task.Arg{task.ValueArg(arg)}, 1), arg
}

// opTaskSeq is Submit(echo8) -> Get -> Free on the centralized plane. The
// traced run splits Get into Wait + Get.
func opTaskSeq(e *env, c *client) error {
	op := c.nextOp()
	spec, arg := echoSpec(e, op, 0)
	t := c.now()
	refs := e.rt.SubmitCtx(c.ctx, spec)
	c.rec(spSubmit, op, 0, t)
	defer func() {
		t := c.now()
		e.rt.Free(refs...)
		c.rec(spFree, op, 0, t)
	}()
	if c.tracing {
		t = c.now()
		_, err := e.rt.Wait(c.ctx, refs, 1)
		c.rec(spWait, op, 0, t)
		if err != nil {
			return err
		}
	}
	t = c.now()
	out, err := e.rt.Get(c.ctx, refs[0])
	c.rec(spGet, op, 0, t)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, arg) {
		return fmt.Errorf("echo8 %x returned %x: %w", arg, out, errMismatch)
	}
	return nil
}

// opTaskFanout submits a wave of 64 echo8 tasks, waits for all, and frees
// them, on the decentralized plane. There is no Get fetch in the op, so the
// outputs are checked where they were committed: the ownership record names
// the node, and that node's store is read directly.
func opTaskFanout(e *env, c *client) error {
	op := c.nextOp()
	refs := make([]idgen.ObjectID, fanoutWave)
	args := make([][]byte, fanoutWave)
	for i := range refs {
		spec, arg := echoSpec(e, op, i)
		args[i] = arg
		t := c.now()
		refs[i] = e.rt.SubmitCtx(c.ctx, spec)[0]
		c.rec(spSubmit, op, i, t)
	}
	defer func() {
		t := c.now()
		e.rt.Free(refs...)
		c.rec(spFree, op, 0, t)
	}()
	t := c.now()
	_, err := e.rt.Wait(c.ctx, refs, len(refs))
	c.rec(spWait, op, 0, t)
	if err != nil {
		return err
	}
	for i, ref := range refs {
		rec, err := e.rt.Head.Table.Get(ref)
		if err != nil {
			return err
		}
		if len(rec.Locations) == 0 {
			return fmt.Errorf("echo8 result %d has no location: %w", i, errMismatch)
		}
		out, _, err := e.rt.Layer.Store(rec.Locations[0]).Get(ref)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, args[i]) {
			return fmt.Errorf("echo8 %x stored %x: %w", args[i], out, errMismatch)
		}
	}
	return nil
}

// ---- dag_shuffle ----

const (
	fnDagMap    = "bench/dag-map"
	fnDagReduce = "bench/dag-reduce"

	dagMaps      = 8
	dagReduces   = 4
	dagPartBytes = 64 << 10
	dagHeader    = 16 // op id, then map<<8|partition, both little-endian
	dagPoolSize  = 64
)

// dagData is dag_shuffle's generator state: a pool of incompressible
// 64 KiB blocks and the hash of each block's body, so the expected checksum
// of an op costs the generator 32 table lookups and not 2 MiB of hashing.
type dagData struct {
	seed   uint64
	blocks [][]byte
	hashes []uint64
}

// block picks the pool block a (op, map, partition) triple emits.
func (d *dagData) block(op uint64, m, p int) int {
	return int(mix64(d.seed^op*0x9e3779b97f4a7c15^uint64(m)<<8^uint64(p)) % dagPoolSize)
}

// partSum is what a reducer contributes for one partition: the hash of the
// body it read, tied to the header, so a partition routed to the wrong
// reducer or op changes the sum.
func partSum(body uint64, op uint64, tag uint64) uint64 {
	return body ^ mix64(op^tag<<48)
}

func prepareDag(e *env) error {
	for i := range e.clients {
		name := fmt.Sprintf("t%d", i)
		if err := e.rt.RegisterTenant(tenancy.Config{Name: name, Weight: 1}); err != nil {
			return err
		}
		e.clients[i].ctx = tenancy.ContextWith(e.clients[i].ctx, name)
	}
	d := &dagData{seed: e.seed}
	r := newRand(e.seed, "dag/pool")
	for i := 0; i < dagPoolSize; i++ {
		b := randomBytes(r, dagPartBytes)
		d.blocks = append(d.blocks, b)
		d.hashes = append(d.hashes, hash64(b[dagHeader:]))
	}
	e.data = d

	e.register(taskFunc{
		name: fnDagMap,
		// map emits 4 partitions: a pool block each, copied into a fresh
		// buffer and stamped with the op, map and partition it belongs to.
		fn: func(_ *task.Context, args [][]byte) ([][]byte, error) {
			op := binary.LittleEndian.Uint64(args[0])
			m := int(binary.LittleEndian.Uint64(args[0][8:]))
			outs := make([][]byte, dagReduces)
			for p := range outs {
				buf := make([]byte, dagPartBytes)
				copy(buf, d.blocks[d.block(op, m, p)])
				binary.LittleEndian.PutUint64(buf, op)
				binary.LittleEndian.PutUint64(buf[8:], uint64(m)<<8|uint64(p))
				outs[p] = buf
			}
			return outs, nil
		},
		id: func(args [][]byte) (uint64, int) {
			return binary.LittleEndian.Uint64(args[0]), int(binary.LittleEndian.Uint64(args[0][8:]))
		},
	})
	e.register(taskFunc{
		name: fnDagReduce,
		// reduce reads every byte of its 8 by-reference partitions and
		// returns the 8-byte sum of their partSums.
		fn: func(_ *task.Context, args [][]byte) ([][]byte, error) {
			var sum uint64
			for _, part := range args[1:] {
				if len(part) != dagPartBytes {
					return nil, fmt.Errorf("dag-reduce: partition of %d bytes", len(part))
				}
				sum += partSum(hash64(part[dagHeader:]),
					binary.LittleEndian.Uint64(part), binary.LittleEndian.Uint64(part[8:]))
			}
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, sum)
			return [][]byte{out}, nil
		},
		id: func(args [][]byte) (uint64, int) {
			return binary.LittleEndian.Uint64(args[0]), dagMaps + int(binary.LittleEndian.Uint64(args[0][8:]))
		},
	})
	return nil
}

func dagArg(op uint64, idx int) task.Arg {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, op)
	binary.LittleEndian.PutUint64(b[8:], uint64(idx))
	return task.ValueArg(b)
}

// opDagShuffle runs the two-stage DAG: 8 maps x 4 partitions of 64 KiB,
// 4 reduces x 8 by-reference arguments, 4 results fetched, 36 objects freed.
func opDagShuffle(e *env, c *client) error {
	d := e.data.(*dagData)
	op := c.nextOp()
	all := make([]idgen.ObjectID, 0, dagMaps*dagReduces+dagReduces)
	defer func() {
		t := c.now()
		e.rt.Free(all...)
		c.rec(spFree, op, 0, t)
	}()
	parts := make([][]idgen.ObjectID, dagMaps)
	for m := range parts {
		spec := task.NewSpec(e.rt.Job(), fnDagMap, []task.Arg{dagArg(op, m)}, dagReduces)
		t := c.now()
		parts[m] = e.rt.SubmitCtx(c.ctx, spec)
		c.rec(spSubmit, op, m, t)
		all = append(all, parts[m]...)
	}
	results := make([]idgen.ObjectID, dagReduces)
	for r := range results {
		args := make([]task.Arg, 0, 1+dagMaps)
		args = append(args, dagArg(op, r))
		for m := range parts {
			args = append(args, task.RefArg(parts[m][r]))
		}
		spec := task.NewSpec(e.rt.Job(), fnDagReduce, args, 1)
		t := c.now()
		results[r] = e.rt.SubmitCtx(c.ctx, spec)[0]
		c.rec(spSubmit, op, dagMaps+r, t)
	}
	all = append(all, results...)
	if c.tracing {
		t := c.now()
		_, err := e.rt.Wait(c.ctx, results, len(results))
		c.rec(spWait, op, 0, t)
		if err != nil {
			return err
		}
	}
	for r, ref := range results {
		t := c.now()
		out, err := e.rt.Get(c.ctx, ref)
		c.rec(spGet, op, r, t)
		if err != nil {
			return err
		}
		var want uint64
		for m := 0; m < dagMaps; m++ {
			want += partSum(d.hashes[d.block(op, m, r)], op, uint64(m)<<8|uint64(r))
		}
		if len(out) != 8 || binary.LittleEndian.Uint64(out) != want {
			return fmt.Errorf("reduce %d returned %x, want %016x: %w", r, out, want, errMismatch)
		}
	}
	return nil
}

// ---- object_rw ----

const (
	objSmall = 64 << 10
	objLarge = 1 << 20
	// objPoolBytes is the random pool puts slice their payloads from, at a
	// seeded offset, so successive puts carry different bytes.
	objPoolBytes = 8 << 20
)

func prepareObjectRW(e *env) error {
	e.data = randomBytes(newRand(e.seed, "object/pool"), objPoolBytes)
	return nil
}

// opObjectRW is PutAt(random server) -> cold Get to the driver for a 64 KiB
// and a 1 MiB object (order from the seed), then Free of both. The time
// inside the four calls is what put_mb_per_s and get_mb_per_s report, so
// this op stamps them in the timed run too: four clock reads in 2.7 ms.
func opObjectRW(e *env, c *client) error {
	pool := e.data.([]byte)
	op := c.nextOp()
	sizes := [2]int{objSmall, objLarge}
	if c.rng.Intn(2) == 1 {
		sizes[0], sizes[1] = sizes[1], sizes[0]
	}
	ids := make([]idgen.ObjectID, 0, 2)
	defer func() {
		t := c.now()
		e.rt.Free(ids...)
		c.rec(spFree, op, 0, t)
	}()
	for i, size := range sizes {
		node := e.servers[c.rng.Intn(len(e.servers))]
		off := c.rng.Intn((len(pool)-size)/8) * 8
		data := pool[off : off+size]
		putName, getName := spPut64k, spGet64k
		if size == objLarge {
			putName, getName = spPut1m, spGet1m
		}

		t0 := time.Now()
		id, err := e.rt.PutAt(node, data, "raw")
		c.put.add(size, time.Since(t0))
		c.rec(putName, op, i, t0)
		if err != nil {
			return err
		}
		ids = append(ids, id)

		t0 = time.Now()
		got, err := e.rt.Get(c.ctx, id)
		c.get.add(size, time.Since(t0))
		c.rec(getName, op, i, t0)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("get of %d-byte object at pool offset %d: %w", size, off, errMismatch)
		}
	}
	return nil
}
