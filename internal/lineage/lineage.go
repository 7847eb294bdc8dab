// Package lineage implements lineage-based fault tolerance (§2.1): given
// each lost object's producing task, it computes the minimal
// topologically-ordered set of tasks to re-execute so lost objects can be
// regenerated — the recovery strategy most task-parallel systems use
// because replication is costly. The producers themselves live on the
// objects' ownership records; the runtime turns to this only for objects
// the caching layer kept no copy of (runtime's restore), and experiment E6
// measures that trade-off.
package lineage

import (
	"errors"
	"fmt"

	"skadi/internal/idgen"
	"skadi/internal/task"
)

// Errors returned by RecoveryPlan.
var (
	// ErrNoProducer reports a lost object with no recorded producing task
	// and no surviving copy: it cannot be recovered.
	ErrNoProducer = errors.New("lineage: object has no producer and no copy")
	// ErrCycle reports a dependency cycle, which indicates corrupt records
	// (task DAGs are acyclic by construction).
	ErrCycle = errors.New("lineage: dependency cycle")
)

// RecoveryPlan computes the tasks to re-execute to regenerate the lost
// objects, in dependency order (producers before consumers). producer
// returns an object's recorded producing task; available reports whether an
// object currently has a readable copy. Unavailable inputs are recovered
// transitively. Each task appears at most once even when several of its
// outputs are lost. It holds no lock, so available may repair what it
// finds.
func RecoveryPlan(lost []idgen.ObjectID, producer func(idgen.ObjectID) (*task.Spec, bool), available func(idgen.ObjectID) bool) ([]*task.Spec, error) {
	var (
		plan    []*task.Spec
		state   = make(map[idgen.TaskID]int) // 0 unvisited, 1 in-progress, 2 done
		visitFn func(id idgen.ObjectID) error
	)
	visitFn = func(id idgen.ObjectID) error {
		if available(id) {
			return nil
		}
		spec, ok := producer(id)
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoProducer, id.Short())
		}
		switch state[spec.ID] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("%w: via task %s", ErrCycle, spec.ID.Short())
		}
		state[spec.ID] = 1
		for _, ref := range spec.RefArgs() {
			if err := visitFn(ref); err != nil {
				return err
			}
		}
		state[spec.ID] = 2
		plan = append(plan, spec)
		return nil
	}

	for _, id := range lost {
		if err := visitFn(id); err != nil {
			return nil, err
		}
	}
	return plan, nil
}
