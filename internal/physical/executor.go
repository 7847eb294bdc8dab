package physical

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"skadi/internal/arrowlite"
	"skadi/internal/flowgraph"
	"skadi/internal/idgen"
	"skadi/internal/ir"
	"skadi/internal/runtime"
	"skadi/internal/task"
)

// execSeq disambiguates function registrations across executor instances.
var execSeq atomic.Int64

// Executor runs a physical plan on a runtime.
type Executor struct {
	rt     *runtime.Runtime
	plan   *Plan
	prefix string
	// fns names every function this executor registered.
	fns []string
	// freeIntermediates releases non-sink objects after the results are
	// gathered (see FreeIntermediates).
	freeIntermediates bool
}

// FreeIntermediates makes Run release every intermediate object (shard
// inputs, partition pieces, non-sink vertex outputs) once the sink results
// have been gathered — trading lineage re-readability for cluster memory —
// and then the executor's task functions, which nothing can replay any
// more. Such an executor runs once.
func (ex *Executor) FreeIntermediates(on bool) *Executor {
	ex.freeIntermediates = on
	return ex
}

// NewExecutor prepares a plan for execution: it registers one task
// function per vertex plus the partition/split operators in the runtime's
// registry (code shipping).
func NewExecutor(rt *runtime.Runtime, plan *Plan) *Executor {
	ex := &Executor{
		rt:     rt,
		plan:   plan,
		prefix: fmt.Sprintf("fg/%s/%d", plan.Graph.Name, execSeq.Add(1)),
	}
	for _, v := range plan.Graph.Vertices {
		if v.IR != nil {
			ex.registerIRVertex(v, plan.Vertices[v.ID].Backend)
		}
	}
	ex.register(ex.prefix+"/partition", partitionFn)
	ex.register(ex.prefix+"/split", splitFn)
	return ex
}

func (ex *Executor) register(name string, fn task.Func) {
	ex.rt.Registry.Register(name, fn)
	ex.fns = append(ex.fns, name)
}

// vertexFn returns the registered function name for a vertex.
func (ex *Executor) vertexFn(v *flowgraph.Vertex) string {
	if v.Handcraft != "" {
		return v.Handcraft
	}
	return fmt.Sprintf("%s/v%d", ex.prefix, v.ID)
}

// registerIRVertex installs the task function evaluating the vertex's IR.
// Arguments arrive as encoded datums, grouped per input edge by the
// "groups" meta (comma-separated counts); groups with several table datums
// are concatenated before evaluation. The function charges the IR cost
// model for its backend via Context.Compute.
func (ex *Executor) registerIRVertex(v *flowgraph.Vertex, backend string) {
	f := v.IR
	ex.register(ex.vertexFn(v), func(tctx *task.Context, args [][]byte) ([][]byte, error) {
		groups, err := parseGroups(tctx.Spec.Meta["groups"], len(args))
		if err != nil {
			return nil, err
		}
		inputs := make([]*ir.Datum, 0, len(groups))
		pos := 0
		var totalElems int64
		for _, n := range groups {
			datums := make([]*ir.Datum, 0, n)
			for i := 0; i < n; i++ {
				d, err := ir.DecodeDatum(args[pos])
				if err != nil {
					return nil, err
				}
				datums = append(datums, d)
				pos++
			}
			merged, err := mergeDatums(datums)
			if err != nil {
				return nil, err
			}
			totalElems += merged.Elems()
			inputs = append(inputs, merged)
		}
		// Charge the cost model for every op at this backend.
		var cost time.Duration
		for _, op := range f.Ops {
			cost += ir.Cost(op, totalElems, backend)
		}
		if cost > 0 {
			tctx.Compute(cost)
		}
		outs, err := ir.Eval(f, inputs)
		if err != nil {
			return nil, err
		}
		res := make([][]byte, len(outs))
		for i, d := range outs {
			res[i] = ir.EncodeDatum(d)
		}
		return res, nil
	})
}

func parseGroups(meta string, nArgs int) ([]int, error) {
	if meta == "" {
		// Default: every arg is its own group.
		groups := make([]int, nArgs)
		for i := range groups {
			groups[i] = 1
		}
		return groups, nil
	}
	parts := strings.Split(meta, ",")
	groups := make([]int, len(parts))
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("physical: bad groups meta %q", meta)
		}
		groups[i] = n
		total += n
	}
	if total != nArgs {
		return nil, fmt.Errorf("physical: groups %q cover %d args, got %d", meta, total, nArgs)
	}
	return groups, nil
}

// mergeDatums combines the datums arriving on one edge: single datums pass
// through; multiple tables concatenate; multiple tensors are summed... no:
// multiple tensors on one edge indicate a planner bug.
func mergeDatums(ds []*ir.Datum) (*ir.Datum, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("physical: empty input group")
	}
	if len(ds) == 1 {
		return ds[0], nil
	}
	batches := make([]*arrowlite.Batch, len(ds))
	for i, d := range ds {
		if d.Kind != ir.KTable {
			return nil, fmt.Errorf("physical: cannot merge %s datums", d.Kind)
		}
		batches[i] = d.Table
	}
	merged, err := arrowlite.Concat(batches...)
	if err != nil {
		return nil, err
	}
	return ir.TableDatum(merged), nil
}

// partitionFn splits a table into Meta["parts"] partitions by a hash of
// Meta["key"], one return per partition.
func partitionFn(tctx *task.Context, args [][]byte) ([][]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("physical: partition takes 1 arg")
	}
	d, err := ir.DecodeDatum(args[0])
	if err != nil {
		return nil, err
	}
	if d.Kind != ir.KTable {
		return nil, fmt.Errorf("physical: partition of %s", d.Kind)
	}
	parts, err := strconv.Atoi(tctx.Spec.Meta["parts"])
	if err != nil || parts < 1 {
		return nil, fmt.Errorf("physical: bad parts %q", tctx.Spec.Meta["parts"])
	}
	key := tctx.Spec.Meta["key"]
	batch := d.Table
	colIdx := batch.Schema.Index(key)
	if colIdx < 0 {
		return nil, fmt.Errorf("physical: partition key %q not in schema", key)
	}
	rowSets := make([][]int, parts)
	col := batch.Col(colIdx)
	for r := 0; r < batch.NumRows(); r++ {
		var h uint64
		switch col.Type {
		case arrowlite.Int64:
			h = mix64(uint64(col.Ints[r]))
		case arrowlite.Float64:
			h = mix64(uint64(int64(col.Floats[r])))
		default:
			hasher := fnv.New64a()
			_, _ = hasher.Write(col.BytesAt(r))
			h = hasher.Sum64()
		}
		p := int(h % uint64(parts))
		rowSets[p] = append(rowSets[p], r)
	}
	out := make([][]byte, parts)
	for p := range out {
		out[p] = ir.EncodeDatum(ir.TableDatum(batch.Select(rowSets[p])))
	}
	return out, nil
}

// splitFn round-robins a table's rows into Meta["parts"] pieces.
func splitFn(tctx *task.Context, args [][]byte) ([][]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("physical: split takes 1 arg")
	}
	d, err := ir.DecodeDatum(args[0])
	if err != nil {
		return nil, err
	}
	if d.Kind != ir.KTable {
		return nil, fmt.Errorf("physical: split of %s", d.Kind)
	}
	parts, err := strconv.Atoi(tctx.Spec.Meta["parts"])
	if err != nil || parts < 1 {
		return nil, fmt.Errorf("physical: bad parts %q", tctx.Spec.Meta["parts"])
	}
	batch := d.Table
	rowSets := make([][]int, parts)
	for r := 0; r < batch.NumRows(); r++ {
		rowSets[r%parts] = append(rowSets[r%parts], r)
	}
	out := make([][]byte, parts)
	for p := range out {
		out[p] = ir.EncodeDatum(ir.TableDatum(batch.Select(rowSets[p])))
	}
	return out, nil
}

// mix64 is a splitmix64 finalizer for hash partitioning.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Run executes the plan. inputs maps source-vertex names to their input
// datums: one datum (split across shards automatically for tables) or
// exactly one per shard. It returns, per sink vertex name, one datum per
// shard (tables from multiple shards are concatenated into one).
func (ex *Executor) Run(ctx context.Context, inputs map[string][]*ir.Datum) (map[string]*ir.Datum, error) {
	g := ex.plan.Graph
	// outRefs[vertexID][shard] = the shard's result reference.
	outRefs := make(map[int][]idgen.ObjectID)
	// tracked accumulates every object the run creates, for optional GC.
	var tracked []idgen.ObjectID
	track := func(ids ...idgen.ObjectID) { tracked = append(tracked, ids...) }

	for _, v := range ex.plan.Order {
		pv := ex.plan.Vertices[v.ID]
		par := pv.Parallelism
		inEdges := g.In(v)

		// argsPerShard[shard][edge] = refs feeding that shard from that edge.
		argsPerShard := make([][][]idgen.ObjectID, par)
		for s := range argsPerShard {
			argsPerShard[s] = make([][]idgen.ObjectID, 0, len(inEdges)+1)
		}

		if len(inEdges) == 0 {
			// Source vertex: feed from provided inputs. Fused vertices
			// carry "+"-joined names; the original source's name (the
			// first component) still binds its input.
			ds, ok := inputs[v.Name]
			if !ok {
				for _, part := range strings.Split(v.Name, "+") {
					if ds, ok = inputs[part]; ok {
						break
					}
				}
			}
			if !ok {
				return nil, fmt.Errorf("physical: no input for source vertex %q", v.Name)
			}
			refs, err := ex.materializeInputs(ctx, v, ds, par, track)
			if err != nil {
				return nil, err
			}
			track(refs...)
			for s := 0; s < par; s++ {
				argsPerShard[s] = append(argsPerShard[s], []idgen.ObjectID{refs[s]})
			}
		}

		for _, e := range inEdges {
			prodRefs := outRefs[e.From]
			perShard, err := ex.routeEdge(ctx, e, prodRefs, par)
			if err != nil {
				return nil, err
			}
			for s := 0; s < par; s++ {
				argsPerShard[s] = append(argsPerShard[s], perShard[s])
				track(perShard[s]...)
			}
		}

		// Build and submit shard tasks.
		specs := make([]*task.Spec, par)
		for s := 0; s < par; s++ {
			var args []task.Arg
			var groups []string
			for _, group := range argsPerShard[s] {
				groups = append(groups, strconv.Itoa(len(group)))
				for _, ref := range group {
					args = append(args, task.RefArg(ref))
				}
			}
			spec := task.NewSpec(ex.rt.Job(), ex.vertexFn(v), args, 1)
			spec.Backend = pv.Backend
			spec.Meta = map[string]string{
				"groups": strings.Join(groups, ","),
				"shard":  strconv.Itoa(s),
			}
			if v.Gang {
				spec.Gang = v.Name
			}
			specs[s] = spec
		}
		refs := make([]idgen.ObjectID, par)
		if v.Gang {
			ganged, err := ex.rt.SubmitGang(ctx, specs)
			if err != nil {
				return nil, fmt.Errorf("physical: gang %q: %w", v.Name, err)
			}
			for s := range ganged {
				refs[s] = ganged[s][0]
			}
		} else {
			for s, spec := range specs {
				refs[s] = ex.rt.Submit(spec)[0]
			}
		}
		outRefs[v.ID] = refs
		track(refs...)
	}

	// Gather sink results.
	results := make(map[string]*ir.Datum)
	for _, v := range g.Sinks() {
		var datums []*ir.Datum
		for _, ref := range outRefs[v.ID] {
			raw, err := ex.rt.Get(ctx, ref)
			if err != nil {
				return nil, fmt.Errorf("physical: sink %q: %w", v.Name, err)
			}
			d, err := ir.DecodeDatum(raw)
			if err != nil {
				return nil, err
			}
			datums = append(datums, d)
		}
		merged, err := mergeDatums(datums)
		if err != nil {
			return nil, fmt.Errorf("physical: merging sink %q: %w", v.Name, err)
		}
		results[v.Name] = merged
	}
	if ex.freeIntermediates {
		// The results are fully materialized above; everything the run
		// created in the cluster can go. Duplicate IDs in tracked are
		// harmless (Free is idempotent).
		ex.rt.Drain()
		ex.rt.Free(tracked...)
		// Every object these functions could re-derive is freed and its
		// lineage forgotten, so no dispatch or replay can name them again.
		ex.rt.Registry.Unregister(ex.fns...)
	}
	return results, nil
}

// materializeInputs places source data into the object store and returns
// one ref per shard; any staging objects it creates beyond the returned
// refs are reported via track.
func (ex *Executor) materializeInputs(ctx context.Context, v *flowgraph.Vertex, ds []*ir.Datum, par int, track func(...idgen.ObjectID)) ([]idgen.ObjectID, error) {
	switch {
	case len(ds) == par:
		refs := make([]idgen.ObjectID, par)
		for i, d := range ds {
			ref, err := ex.rt.Put(ir.EncodeDatum(d), "datum")
			if err != nil {
				return nil, err
			}
			refs[i] = ref
		}
		return refs, nil
	case len(ds) == 1 && par == 1:
		ref, err := ex.rt.Put(ir.EncodeDatum(ds[0]), "datum")
		if err != nil {
			return nil, err
		}
		return []idgen.ObjectID{ref}, nil
	case len(ds) == 1 && ds[0].Kind == ir.KTable:
		// One table split round-robin across shards.
		ref, err := ex.rt.Put(ir.EncodeDatum(ds[0]), "datum")
		if err != nil {
			return nil, err
		}
		track(ref)
		spec := task.NewSpec(ex.rt.Job(), ex.prefix+"/split", []task.Arg{task.RefArg(ref)}, par)
		spec.Meta = map[string]string{"parts": strconv.Itoa(par)}
		return ex.rt.Submit(spec), nil
	default:
		return nil, fmt.Errorf("physical: vertex %q: %d inputs for %d shards", v.Name, len(ds), par)
	}
}

// routeEdge computes, per consumer shard, the producer refs it consumes.
func (ex *Executor) routeEdge(ctx context.Context, e *flowgraph.Edge, prodRefs []idgen.ObjectID, par int) ([][]idgen.ObjectID, error) {
	perShard := make([][]idgen.ObjectID, par)
	switch e.Kind {
	case flowgraph.Broadcast:
		for s := 0; s < par; s++ {
			perShard[s] = append([]idgen.ObjectID(nil), prodRefs...)
		}
	case flowgraph.Keyed:
		// Each producer shard partitions its output into par pieces;
		// consumer shard j takes piece j of every producer.
		for s := range perShard {
			perShard[s] = make([]idgen.ObjectID, 0, len(prodRefs))
		}
		for _, ref := range prodRefs {
			spec := task.NewSpec(ex.rt.Job(), ex.prefix+"/partition", []task.Arg{task.RefArg(ref)}, par)
			spec.Meta = map[string]string{"parts": strconv.Itoa(par), "key": e.Key}
			pieces := ex.rt.Submit(spec)
			for s := 0; s < par; s++ {
				perShard[s] = append(perShard[s], pieces[s])
			}
		}
	default: // Forward
		switch {
		case len(prodRefs) == par:
			for s := 0; s < par; s++ {
				perShard[s] = []idgen.ObjectID{prodRefs[s]}
			}
		case len(prodRefs) == 1 && par > 1:
			spec := task.NewSpec(ex.rt.Job(), ex.prefix+"/split", []task.Arg{task.RefArg(prodRefs[0])}, par)
			spec.Meta = map[string]string{"parts": strconv.Itoa(par)}
			pieces := ex.rt.Submit(spec)
			for s := 0; s < par; s++ {
				perShard[s] = []idgen.ObjectID{pieces[s]}
			}
		default:
			// General n→m: producer shard i feeds consumer i mod m.
			for s := range perShard {
				perShard[s] = nil
			}
			for i, ref := range prodRefs {
				s := i % par
				perShard[s] = append(perShard[s], ref)
			}
			// Shards with no producers get an empty group, which would
			// break merging; give them a share by requiring n >= m.
			for s := range perShard {
				if len(perShard[s]) == 0 {
					return nil, fmt.Errorf("physical: forward edge %d->%d leaves shard %d empty (n=%d, m=%d)",
						e.From, e.To, s, len(prodRefs), par)
				}
			}
		}
	}
	return perShard, nil
}
