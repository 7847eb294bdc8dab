// Package core is Skadi's public façade — the distributed runtime the
// paper envisions as the narrow waist between data systems and hardware.
// One Skadi instance hosts every declarative frontend (SQL, MapReduce,
// graph, ML) over one stateful serverless runtime on one simulated
// disaggregated cluster: users declare computations and stay oblivious to
// data location, concurrency, disaggregation style, and hardware choice.
package core

import (
	"context"
	"fmt"

	"skadi/internal/arrowlite"
	"skadi/internal/cluster"
	"skadi/internal/flowgraph"
	"skadi/internal/frontend/graphfe"
	"skadi/internal/frontend/mlfe"
	"skadi/internal/frontend/mrfe"
	"skadi/internal/frontend/sqlfe"
	"skadi/internal/frontend/streamfe"
	"skadi/internal/idgen"
	"skadi/internal/ir"
	"skadi/internal/physical"
	"skadi/internal/runtime"
	"skadi/internal/task"
)

// Re-exported configuration types, so embedders need only import core.
type (
	// ClusterSpec sizes the simulated data center.
	ClusterSpec = runtime.ClusterSpec
	// Options tunes runtime behaviour.
	Options = runtime.Options
)

// Skadi is one distributed-runtime instance.
type Skadi struct {
	rt *runtime.Runtime
	// Parallelism is the default shard count for declarative jobs.
	// Zero selects automatic degree-of-parallelism: the planner sizes the
	// degree from the actual input volume at submission time — the
	// paper's §2.2 open question ("finalize the degree of parallelism
	// during compilation, or allow tuning during runtime") answered with
	// runtime tuning.
	Parallelism int
}

// Automatic-parallelism tuning knobs.
const (
	// autoRowsPerShard is the target rows per scan shard.
	autoRowsPerShard = 2500
	// autoMaxDegree caps the automatic degree.
	autoMaxDegree = 8
)

// autoDegree sizes the shard count from the total input rows.
func autoDegree(tables map[string]*arrowlite.Batch) int {
	total := 0
	for _, b := range tables {
		total += b.NumRows()
	}
	par := (total + autoRowsPerShard - 1) / autoRowsPerShard
	if par < 1 {
		par = 1
	}
	if par > autoMaxDegree {
		par = autoMaxDegree
	}
	return par
}

// degreeFor resolves the effective parallelism for a job over the given
// inputs.
func (s *Skadi) degreeFor(tables map[string]*arrowlite.Batch) int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return autoDegree(tables)
}

// New boots a Skadi instance on a fresh simulated cluster.
func New(spec ClusterSpec, opts Options) (*Skadi, error) {
	rt, err := runtime.New(spec, opts)
	if err != nil {
		return nil, err
	}
	return &Skadi{rt: rt, Parallelism: 2}, nil
}

// Runtime exposes the underlying stateful serverless runtime (the
// imperative task API: Put/Submit/Get/Wait, actors, failure injection).
func (s *Skadi) Runtime() *runtime.Runtime { return s.rt }

// Close shuts the instance down.
func (s *Skadi) Close() { s.rt.Shutdown() }

// AvailableBackends reports the kernel backends the cluster offers.
func (s *Skadi) AvailableBackends() map[string]bool {
	out := map[string]bool{}
	for _, n := range s.rt.Cluster.AliveNodes() {
		if b := n.Kind.Backend(); b != "" && n.ID != s.rt.Driver() {
			out[b] = true
		}
	}
	return out
}

// SQL parses and executes a query against the named in-memory tables,
// returning the result batch. The full lowering pipeline runs underneath:
// parse → logical FlowGraph → graph optimization → physical sharded graph
// → distributed execution.
func (s *Skadi) SQL(ctx context.Context, query string, tables map[string]*arrowlite.Batch) (*arrowlite.Batch, error) {
	q, err := sqlfe.Parse(query)
	if err != nil {
		return nil, err
	}
	degree := s.degreeFor(tables)
	g, err := sqlfe.PlanGraph(q, sqlfe.PlanOptions{
		ScanParallelism:    degree,
		ShuffleParallelism: degree,
	})
	if err != nil {
		return nil, err
	}
	g.Optimize()
	result, err := s.RunGraph(ctx, g, tablesToInputs(tables))
	if err != nil {
		return nil, err
	}
	for _, d := range result {
		if d.Kind == ir.KTable {
			return d.Table, nil
		}
	}
	return nil, fmt.Errorf("core: query produced no table")
}

func tablesToInputs(tables map[string]*arrowlite.Batch) map[string][]*ir.Datum {
	inputs := make(map[string][]*ir.Datum, len(tables))
	for name, b := range tables {
		inputs[name] = []*ir.Datum{ir.TableDatum(b)}
	}
	return inputs
}

// Explain returns the query's lowering artifacts without executing it:
// the logical FlowGraph before and after optimization, and the physical
// sharded plan with backends and parallelism degrees — Fig. 2's tiers,
// rendered.
func (s *Skadi) Explain(query string, tables map[string]*arrowlite.Batch) (string, error) {
	q, err := sqlfe.Parse(query)
	if err != nil {
		return "", err
	}
	degree := s.degreeFor(tables)
	g, err := sqlfe.PlanGraph(q, sqlfe.PlanOptions{
		ScanParallelism:    degree,
		ShuffleParallelism: degree,
	})
	if err != nil {
		return "", err
	}
	out := "-- logical graph --\n" + g.String()
	stats := g.Optimize()
	out += fmt.Sprintf("-- optimized (fused %d vertices, pruned %d) --\n%s",
		stats.FusedVertices, stats.PrunedVertices, g.String())
	for _, v := range g.Vertices {
		if v.IR != nil {
			out += v.IR.String()
		}
	}
	plan, err := physical.NewPlan(g, physical.Options{
		DefaultParallelism: degree,
		Available:          s.availableWithCPU(),
	})
	if err != nil {
		return "", err
	}
	out += "-- physical plan --\n" + plan.String()
	return out, nil
}

// RunGraph lowers and executes an arbitrary logical FlowGraph; the general
// entry point the domain frontends build on. The caller only ever sees the
// gathered sink datums, so every object the run put in the cluster is freed
// before it returns.
func (s *Skadi) RunGraph(ctx context.Context, g *flowgraph.Graph, inputs map[string][]*ir.Datum) (map[string]*ir.Datum, error) {
	degree := s.Parallelism
	if degree <= 0 {
		degree = 2
	}
	plan, err := physical.NewPlan(g, physical.Options{
		DefaultParallelism: degree,
		Available:          s.availableWithCPU(),
	})
	if err != nil {
		return nil, err
	}
	return physical.NewExecutor(s.rt, plan).FreeIntermediates(true).Run(ctx, inputs)
}

func (s *Skadi) availableWithCPU() map[string]bool {
	avail := s.AvailableBackends()
	avail["cpu"] = true
	return avail
}

// MapReduce runs a MapReduce job over raw records.
func (s *Skadi) MapReduce(ctx context.Context, job *mrfe.Job, records [][]byte) ([]mrfe.KV, error) {
	if job.Mappers == 0 {
		job.Mappers = s.Parallelism
	}
	if job.Reducers == 0 {
		job.Reducers = s.Parallelism
	}
	return job.Run(ctx, s.rt, records)
}

// PageRank computes PageRank over an edge list via the graph frontend.
func (s *Skadi) PageRank(ctx context.Context, edges []graphfe.Edge, iterations int, damping float64) (map[int64]float64, error) {
	return graphfe.PageRank(ctx, s.rt, edges, iterations, s.Parallelism, damping)
}

// SSSP computes shortest-path distances from source over an edge list.
func (s *Skadi) SSSP(ctx context.Context, edges []graphfe.Edge, source int64) (map[int64]float64, error) {
	return graphfe.SSSP(ctx, s.rt, edges, source, s.Parallelism)
}

// Stream runs a micro-batch streaming pipeline (sharded map, keyed
// routing, tumbling windows held in actor state) over the given
// micro-batches.
func (s *Skadi) Stream(ctx context.Context, p *streamfe.Pipeline, microBatches [][]streamfe.Record) ([]streamfe.Output, error) {
	if p.Parallelism == 0 {
		p.Parallelism = s.Parallelism
	}
	return p.Run(ctx, s.rt, microBatches)
}

// Predict runs MLP inference through the runtime on the best available
// backends.
func (s *Skadi) Predict(ctx context.Context, m *mlfe.MLP, x *ir.Tensor) (*ir.Tensor, error) {
	return m.Predict(ctx, s.rt, x, s.availableWithCPU())
}

// TrainLinear fits a linear model with data-parallel SGD on the runtime.
func (s *Skadi) TrainLinear(ctx context.Context, trainer *mlfe.SGDTrainer, x, y *ir.Tensor) (*ir.Tensor, []float64, error) {
	if trainer.Shards == 0 {
		trainer.Shards = s.Parallelism
	}
	return trainer.TrainLinear(ctx, s.rt, x, y)
}

// Register adds a function to the task registry (code shipping).
func (s *Skadi) Register(name string, fn task.Func) { s.rt.Registry.Register(name, fn) }

// Submit schedules a raw task (imperative escape hatch).
func (s *Skadi) Submit(spec *task.Spec) []idgen.ObjectID { return s.rt.Submit(spec) }

// Get fetches a task result to the driver.
func (s *Skadi) Get(ctx context.Context, ref idgen.ObjectID) ([]byte, error) {
	return s.rt.Get(ctx, ref)
}

// ClusterSummary renders the simulated data center inventory.
func (s *Skadi) ClusterSummary() string { return s.rt.Cluster.Summary() }

// NodesByKind exposes cluster topology for tools and experiments.
func (s *Skadi) NodesByKind(kind cluster.NodeKind) []*cluster.Node {
	return s.rt.Cluster.NodesByKind(kind)
}
