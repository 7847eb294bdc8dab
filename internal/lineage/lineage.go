// Package lineage implements lineage-based fault tolerance (§2.1): the log
// remembers which task produced each object, and on failure computes the
// minimal topologically-ordered set of tasks to re-execute so lost objects
// can be regenerated — the recovery strategy most task-parallel systems use
// because replication is costly. The runtime turns to it only for objects
// the caching layer kept no copy of (runtime's restore); experiment E6
// measures that trade-off.
package lineage

import (
	"errors"
	"fmt"
	"sync"

	"skadi/internal/idgen"
	"skadi/internal/task"
)

// Errors returned by the log.
var (
	// ErrNoProducer reports a lost object with no recorded producing task
	// and no surviving copy: it cannot be recovered.
	ErrNoProducer = errors.New("lineage: object has no producer and no copy")
	// ErrCycle reports a dependency cycle, which indicates log corruption
	// (task DAGs are acyclic by construction).
	ErrCycle = errors.New("lineage: dependency cycle")
)

// Log records object provenance. It is safe for concurrent use.
type Log struct {
	mu        sync.RWMutex
	producers map[idgen.ObjectID]*task.Spec
	// consumers is the reverse edge set: for each object, the recorded tasks
	// that take it as a ref argument. Cascading cancellation walks these
	// edges downstream (producer → consumers) the same way recovery walks
	// producer edges upstream.
	consumers map[idgen.ObjectID][]*task.Spec
}

// NewLog returns an empty lineage log.
func NewLog() *Log {
	return &Log{
		producers: make(map[idgen.ObjectID]*task.Spec),
		consumers: make(map[idgen.ObjectID][]*task.Spec),
	}
}

// Record stores spec as the producer of each of its return objects and as a
// consumer of each of its ref arguments.
func (l *Log) Record(spec *task.Spec) {
	l.mu.Lock()
	for _, ret := range spec.Returns {
		l.producers[ret] = spec
	}
	for _, ref := range spec.RefArgs() {
		l.consumers[ref] = append(l.consumers[ref], spec)
	}
	l.mu.Unlock()
}

// Producer returns the task that produced id.
func (l *Log) Producer(id idgen.ObjectID) (*task.Spec, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	spec, ok := l.producers[id]
	return spec, ok
}

// Consumers returns the recorded tasks that consume id as a ref argument
// (a copy; callers may mutate it freely).
func (l *Log) Consumers(id idgen.ObjectID) []*task.Spec {
	l.mu.RLock()
	defer l.mu.RUnlock()
	specs := l.consumers[id]
	if len(specs) == 0 {
		return nil
	}
	out := make([]*task.Spec, len(specs))
	copy(out, specs)
	return out
}

// Forget removes provenance for the given objects (e.g. after a job's
// results are consumed and its objects deleted).
func (l *Log) Forget(ids ...idgen.ObjectID) {
	l.mu.Lock()
	for _, id := range ids {
		delete(l.producers, id)
		delete(l.consumers, id)
	}
	l.mu.Unlock()
}

// Len returns the number of tracked objects.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.producers)
}

// RecoveryPlan computes the tasks to re-execute to regenerate the lost
// objects, in dependency order (producers before consumers). available
// reports whether an object currently has a readable copy; unavailable
// inputs are recovered transitively. Each task appears at most once even
// when several of its outputs are lost.
func (l *Log) RecoveryPlan(lost []idgen.ObjectID, available func(idgen.ObjectID) bool) ([]*task.Spec, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()

	var (
		plan    []*task.Spec
		state   = make(map[idgen.TaskID]int) // 0 unvisited, 1 in-progress, 2 done
		visitFn func(id idgen.ObjectID) error
	)
	visitFn = func(id idgen.ObjectID) error {
		if available(id) {
			return nil
		}
		spec, ok := l.producers[id]
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
