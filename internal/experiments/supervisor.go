package experiments

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
)

// The supervised runner wraps the worker pool with failure containment:
// a panicking task becomes a classified TaskOutcome instead of killing
// the pool, and tasks get a cooperative simulated-cycle budget.  It runs
// on runIndexed's workers; runIndexed keeps its fail-fast contract for the
// experiment suite, while Supervise is the entry point for long soaks that
// must report partial results rather than die.  There is no retry: the
// simulator is deterministic, so a task that failed once fails again.

// FailureClass classifies why a supervised task ended.
type FailureClass uint8

// Task failure classes.
const (
	FailNone      FailureClass = iota // task succeeded
	FailPanic                         // task panicked; recovered by the supervisor
	FailDeadline                      // task exceeded its cycle budget
	FailPermanent                     // task returned an error
)

// String returns the class mnemonic used in summaries.
func (c FailureClass) String() string {
	switch c {
	case FailNone:
		return "ok"
	case FailPanic:
		return "panic"
	case FailDeadline:
		return "deadline"
	case FailPermanent:
		return "permanent"
	}
	return fmt.Sprintf("FailureClass(%d)", uint8(c))
}

// ErrBudget is returned by TaskCtx.Charge when a task has consumed its
// simulated-cycle budget; the supervisor classifies it FailDeadline.
var ErrBudget = errors.New("experiments: task exceeded its cycle budget")

// panicError carries a recovered panic value and its stack as an error.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// TaskCtx is the context handed to a supervised task: a cooperative
// simulated-cycle budget.  Tasks running a Machine call Charge between Run
// chunks so a runaway scenario is cut off deterministically — at the same
// simulated cycle on every host — rather than by wall clock.
type TaskCtx struct {
	budget uint64
	used   uint64
}

// Charge accounts cycles of simulated work against the task's budget and
// returns ErrBudget once it is exhausted (a zero budget never expires).
func (tc *TaskCtx) Charge(cycles uint64) error {
	tc.used += cycles
	if tc.budget > 0 && tc.used > tc.budget {
		return ErrBudget
	}
	return nil
}

// Remaining returns the unconsumed cycle budget (0 when exhausted or when
// the task is unbudgeted).
func (tc *TaskCtx) Remaining() uint64 {
	if tc.budget == 0 || tc.used >= tc.budget {
		return 0
	}
	return tc.budget - tc.used
}

// SuperviseOptions tunes the supervised runner.  The zero value means no
// cycle budget.
type SuperviseOptions struct {
	Label       string // experiment label for pprof/metrics
	CycleBudget uint64 // per-task simulated-cycle budget (0 = unlimited)
}

// TaskOutcome is one task's final disposition.
type TaskOutcome struct {
	Index int
	Class FailureClass
	Err   error // nil when Class is FailNone
}

// OK reports whether the task succeeded.
func (o TaskOutcome) OK() bool { return o.Class == FailNone }

// RunReport aggregates per-task outcomes of one supervised run.  Every
// task has an outcome — partial results survive individual failures.
type RunReport struct {
	Label    string
	Outcomes []TaskOutcome
}

// Failed returns the outcomes of tasks that did not succeed, in index
// order.
func (r *RunReport) Failed() []TaskOutcome {
	var out []TaskOutcome
	for _, o := range r.Outcomes {
		if !o.OK() {
			out = append(out, o)
		}
	}
	return out
}

// Summary renders a one-line result with every failure and its
// classification.
func (r *RunReport) Summary() string {
	ok := 0
	for _, o := range r.Outcomes {
		if o.OK() {
			ok++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d tasks ok", r.Label, ok, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if !o.OK() {
			fmt.Fprintf(&b, "; task %d failed [%s]: %v", o.Index, o.Class, o.Err)
		}
	}
	return b.String()
}

// classify maps a task error to its failure class.
func classify(err error) FailureClass {
	var pe *panicError
	switch {
	case err == nil:
		return FailNone
	case errors.As(err, &pe):
		return FailPanic
	case errors.Is(err, ErrBudget):
		return FailDeadline
	}
	return FailPermanent
}

// superviseTask runs task i once, converting a panic into a *panicError
// so the worker survives, and classifies the result.
func superviseTask(i int, opt SuperviseOptions, fn func(i int, tc *TaskCtx) error) (out TaskOutcome) {
	out.Index = i
	defer func() {
		if r := recover(); r != nil {
			out.Err = &panicError{val: r, stack: debug.Stack()}
		}
		out.Class = classify(out.Err)
	}()
	out.Err = fn(i, &TaskCtx{budget: opt.CycleBudget})
	return out
}

// Supervise invokes fn(0..n-1) across the worker pool with failure
// containment: a panic, budget expiry, or error in one task is recorded
// as that task's outcome while every other task runs to completion.
// Outcomes are indexed by task, so aggregation order matches a serial
// loop regardless of scheduling.
func Supervise(opt SuperviseOptions, n int, fn func(i int, tc *TaskCtx) error) *RunReport {
	label := opt.Label
	if label == "" {
		label = "supervised"
	}
	rep := &RunReport{Label: label, Outcomes: make([]TaskOutcome, max(n, 0))}
	runIndexed(label, n, func(i int) {
		rep.Outcomes[i] = superviseTask(i, opt, fn)
	})
	return rep
}
