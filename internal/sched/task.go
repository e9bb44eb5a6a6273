package sched

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/psioa"
)

// Task is an equivalence class of actions, named for reports — the unit of
// scheduling in the task-structured PIOA framework of Canetti et al. [3],
// which the paper's scheduler model generalises (§4.4: "we tolerate a
// broader set of schedulers instead of only accepting task-schedulers").
// This file makes the comparison executable: task schedules are one schema
// among many.
type Task struct {
	Name    string
	Actions psioa.ActionSet
}

// NewTask builds a task from its actions.
func NewTask(name string, actions ...psioa.Action) Task {
	return Task{Name: name, Actions: psioa.NewActionSet(actions...)}
}

// TaskSchedule is an off-line sequence of tasks, applied in order: a task
// with no enabled action at the current state is skipped (the task-PIOA
// convention); a task with exactly one enabled action fires it; a task with
// several enabled actions is *ambiguous* — the automaton violates
// next-transition determinism for this task structure — and the schedule
// halts (CheckTaskDeterminism detects this up front).
type TaskSchedule struct {
	A     psioa.PSIOA
	Tasks []Task
}

// Name implements Scheduler.
func (t *TaskSchedule) Name() string {
	names := make([]string, len(t.Tasks))
	for i, tk := range t.Tasks {
		names[i] = tk.Name
	}
	return fmt.Sprintf("tasks%v", names)
}

// enabledOf returns the task's enabled actions at state q, sorted.
func (t *TaskSchedule) enabledOf(tk Task, q psioa.State) []psioa.Action {
	sig := t.A.Sig(q)
	var out []psioa.Action
	for _, a := range tk.Actions.Sorted() {
		if sig.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// position replays the fragment to determine how many tasks have been
// consumed: skipped tasks (no enabled action at the state they were applied
// to) consume no transition, so the task index is a deterministic function
// of the execution, recomputed by replay.
func (t *TaskSchedule) position(alpha *psioa.Frag) (int, bool) {
	pos := 0
	for j := 0; j < alpha.Len(); j++ {
		q := alpha.StateAt(j)
		// Skip tasks disabled at q.
		for pos < len(t.Tasks) && len(t.enabledOf(t.Tasks[pos], q)) == 0 {
			pos++
		}
		if pos >= len(t.Tasks) {
			return pos, false // fragment is longer than the schedule allows
		}
		// The j-th action must be the one this task fires.
		en := t.enabledOf(t.Tasks[pos], q)
		if len(en) != 1 || en[0] != alpha.ActionAt(j) {
			return pos, false
		}
		pos++
	}
	return pos, true
}

// Choose implements Scheduler.
func (t *TaskSchedule) Choose(alpha *psioa.Frag) *Choice {
	pos, ok := t.position(alpha)
	if !ok {
		return haltChoice
	}
	q := alpha.LState()
	for pos < len(t.Tasks) {
		en := t.enabledOf(t.Tasks[pos], q)
		switch len(en) {
		case 0:
			pos++ // skipped task
		case 1:
			return measure.Dirac(en[0])
		default:
			return haltChoice // ambiguous task: not schedulable
		}
	}
	return haltChoice
}

// CheckTaskDeterminism verifies next-transition determinism on the
// reachable fragment: every task enables at most one action at every
// reachable state. This is the well-formedness condition of the task-PIOA
// framework; automata violating it cannot be driven by task schedules.
func CheckTaskDeterminism(a psioa.PSIOA, tasks []Task, limit int) error {
	ex, err := psioa.Explore(a, limit)
	if err != nil {
		return err
	}
	for _, q := range ex.States {
		sig := ex.Sigs[q]
		for _, tk := range tasks {
			count := 0
			for act := range tk.Actions {
				if sig.Has(act) {
					count++
				}
			}
			if count > 1 {
				return fmt.Errorf("sched: task %q enables %d actions at state %q: %w", tk.Name, count, q, ErrTaskNondeterministic)
			}
		}
	}
	return nil
}

// TaskSchema enumerates all task schedules up to the bound over a fixed
// task alphabet — the task-PIOA analogue of ObliviousSchema. Every
// enumerated scheduler is trivially oblivious (its decisions depend on the
// state only through task enabledness) and bound-bounded.
type TaskSchema struct {
	Tasks []Task
	// MaxCount caps the enumeration (default 100000).
	MaxCount int
}

// Name implements Schema.
func (t *TaskSchema) Name() string { return "task" }

// Enumerate implements Schema.
func (t *TaskSchema) Enumerate(a psioa.PSIOA, bound int) ([]Scheduler, error) {
	maxCount := t.MaxCount
	if maxCount == 0 {
		maxCount = 100000
	}
	total, pow := 0, 1
	for l := 0; l <= bound; l++ {
		total += pow
		if total > maxCount {
			return nil, fmt.Errorf("sched: task enumeration over %d tasks up to length %d exceeds cap %d: %w", len(t.Tasks), bound, maxCount, ErrEnumerationCap)
		}
		pow *= len(t.Tasks)
		if len(t.Tasks) == 0 {
			break
		}
	}
	var out []Scheduler
	var rec func(prefix []Task)
	rec = func(prefix []Task) {
		out = append(out, &TaskSchedule{A: a, Tasks: append([]Task(nil), prefix...)})
		if len(prefix) == bound {
			return
		}
		for _, tk := range t.Tasks {
			rec(append(prefix, tk))
		}
	}
	rec(nil)
	return out, nil
}
