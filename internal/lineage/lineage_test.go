package lineage

import (
	"errors"
	"testing"

	"skadi/internal/idgen"
	"skadi/internal/task"
)

// chainSpecs builds a linear chain t1 -> t2 -> ... -> tn where each task
// consumes the previous task's output, returning the specs.
func chainSpecs(n int) []*task.Spec {
	job := idgen.Next()
	specs := make([]*task.Spec, n)
	var prev idgen.ObjectID
	for i := range specs {
		var args []task.Arg
		if i > 0 {
			args = []task.Arg{task.RefArg(prev)}
		}
		specs[i] = task.NewSpec(job, "fn", args, 1)
		prev = specs[i].Returns[0]
	}
	return specs
}

// producers indexes specs by return, the way ownership records do.
type producers map[idgen.ObjectID]*task.Spec

func record(specs ...*task.Spec) producers {
	p := make(producers)
	for _, s := range specs {
		for _, ret := range s.Returns {
			p[ret] = s
		}
	}
	return p
}

func (p producers) of(id idgen.ObjectID) (*task.Spec, bool) {
	s, ok := p[id]
	return s, ok
}

func TestRecoveryPlanSingleTask(t *testing.T) {
	spec := task.NewSpec(idgen.Next(), "f", nil, 1)
	plan, err := RecoveryPlan([]idgen.ObjectID{spec.Returns[0]}, record(spec).of, func(idgen.ObjectID) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0] != spec {
		t.Errorf("plan = %v", plan)
	}
}

func TestRecoveryPlanChainTransitive(t *testing.T) {
	specs := chainSpecs(4)
	l := record(specs...)
	// Everything is lost: the plan must replay the whole chain in order.
	plan, err := RecoveryPlan(
		[]idgen.ObjectID{specs[3].Returns[0]}, l.of,
		func(idgen.ObjectID) bool { return false },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("plan length = %d, want 4", len(plan))
	}
	for i, s := range specs {
		if plan[i] != s {
			t.Errorf("plan[%d] = task %s, want %s (topological order)", i, plan[i].ID.Short(), s.ID.Short())
		}
	}
}

func TestRecoveryPlanStopsAtAvailableInputs(t *testing.T) {
	specs := chainSpecs(4)
	l := record(specs...)
	// Outputs of tasks 0 and 1 survive; only 2 and 3 must replay.
	available := map[idgen.ObjectID]bool{
		specs[0].Returns[0]: true,
		specs[1].Returns[0]: true,
	}
	plan, err := RecoveryPlan(
		[]idgen.ObjectID{specs[3].Returns[0]}, l.of,
		func(id idgen.ObjectID) bool { return available[id] },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 || plan[0] != specs[2] || plan[1] != specs[3] {
		t.Errorf("plan = %d tasks, want [t2 t3]", len(plan))
	}
}

func TestRecoveryPlanDiamondDedup(t *testing.T) {
	// a -> b, a -> c, (b,c) -> d: losing d and b must run a once.
	job := idgen.Next()
	a := task.NewSpec(job, "a", nil, 1)
	b := task.NewSpec(job, "b", []task.Arg{task.RefArg(a.Returns[0])}, 1)
	c := task.NewSpec(job, "c", []task.Arg{task.RefArg(a.Returns[0])}, 1)
	d := task.NewSpec(job, "d", []task.Arg{task.RefArg(b.Returns[0]), task.RefArg(c.Returns[0])}, 1)
	l := record(a, b, c, d)
	plan, err := RecoveryPlan(
		[]idgen.ObjectID{d.Returns[0], b.Returns[0]}, l.of,
		func(idgen.ObjectID) bool { return false },
	)
	if err != nil {
		t.Fatal(err)
	}
	count := map[idgen.TaskID]int{}
	for _, s := range plan {
		count[s.ID]++
	}
	if count[a.ID] != 1 {
		t.Errorf("task a appears %d times, want 1", count[a.ID])
	}
	if len(plan) != 4 {
		t.Errorf("plan = %d tasks, want 4 (a,b,c,d)", len(plan))
	}
	// a must precede b and c; b,c must precede d.
	pos := map[idgen.TaskID]int{}
	for i, s := range plan {
		pos[s.ID] = i
	}
	if pos[a.ID] > pos[b.ID] || pos[a.ID] > pos[c.ID] || pos[b.ID] > pos[d.ID] || pos[c.ID] > pos[d.ID] {
		t.Errorf("plan order violated: %v", pos)
	}
}

func TestRecoveryPlanNoProducer(t *testing.T) {
	_, err := RecoveryPlan([]idgen.ObjectID{idgen.Next()}, record().of, func(idgen.ObjectID) bool { return false })
	if !errors.Is(err, ErrNoProducer) {
		t.Errorf("err = %v, want ErrNoProducer", err)
	}
}

func TestRecoveryPlanExternalInputAvailable(t *testing.T) {
	// A task consuming an external (untracked) object recovers fine as long
	// as that object is still available.
	external := idgen.Next()
	spec := task.NewSpec(idgen.Next(), "f", []task.Arg{task.RefArg(external)}, 1)
	l := record(spec)
	plan, err := RecoveryPlan(
		[]idgen.ObjectID{spec.Returns[0]}, l.of,
		func(id idgen.ObjectID) bool { return id == external },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 {
		t.Errorf("plan = %d tasks", len(plan))
	}
}

func TestRecoveryPlanCycleDetected(t *testing.T) {
	// Hand-corrupt the records with a cycle: a consumes b's output and
	// produces b's input.
	job := idgen.Next()
	x, y := idgen.Next(), idgen.Next()
	a := &task.Spec{ID: idgen.Next(), Job: job, Fn: "a", Args: []task.Arg{task.RefArg(x)}, Returns: []idgen.ObjectID{y}}
	b := &task.Spec{ID: idgen.Next(), Job: job, Fn: "b", Args: []task.Arg{task.RefArg(y)}, Returns: []idgen.ObjectID{x}}
	_, err := RecoveryPlan([]idgen.ObjectID{y}, record(a, b).of, func(idgen.ObjectID) bool { return false })
	if !errors.Is(err, ErrCycle) {
		t.Errorf("err = %v, want ErrCycle", err)
	}
}
