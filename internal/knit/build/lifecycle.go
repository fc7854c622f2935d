package build

import (
	"fmt"
	"strings"
)

// LifecycleError is the structured failure report for every component
// lifecycle operation — initialization, finalization, dynamic load,
// fallback swap, restart, and unload. It names the unit instance and the function that failed, says
// whether the machine was rolled back to its pre-operation state, and
// collects (rather than masks) any finalizer failures that happened
// while rolling back.
type LifecycleError struct {
	// Op is the lifecycle operation that failed: "init", "fini",
	// "dynamic-init", "swap", "restart", or "unload".
	Op string
	// Unit is the owning unit-instance path, e.g. "LogServe/Log#1" or
	// "dynamic/MonitorU#4".
	Unit string
	// Func is the source-level name of the failing initializer or
	// finalizer; Global is its program-unique renamed symbol.
	Func   string
	Global string
	// Err is the underlying failure (usually a *machine.Trap).
	Err error
	// RolledBack reports whether the machine was restored to its state
	// from before the operation. When true, retrying the operation is
	// safe: nothing half-done remains on the machine.
	RolledBack bool
	// RollbackErrs holds failures of finalizers run during the rollback
	// itself. The machine state is still restored (the snapshot wins),
	// but the failures are reported so a buggy finalizer cannot hide
	// behind the initializer failure that triggered it.
	RollbackErrs []error
}

func (e *LifecycleError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "knit: %s failed: unit %s", e.Op, e.Unit)
	if e.Func != "" {
		fmt.Fprintf(&b, ", %s %s", stepNoun(e.Op), e.Func)
	}
	if e.Global != "" && e.Global != e.Func {
		fmt.Fprintf(&b, " (%s)", e.Global)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	if e.RolledBack {
		b.WriteString(" [machine rolled back to pre-")
		b.WriteString(e.Op)
		b.WriteString(" state]")
	}
	for _, re := range e.RollbackErrs {
		fmt.Fprintf(&b, "; during rollback: %v", re)
	}
	return b.String()
}

// Unwrap exposes the underlying failure and every rollback failure for
// errors.Is/As traversal (multi-error unwrap, as errors.Join produces):
// a caller can match an individual finalizer's *LifecycleError or the
// *machine.Trap inside it without string-matching the message.
func (e *LifecycleError) Unwrap() []error {
	var errs []error
	if e.Err != nil {
		errs = append(errs, e.Err)
	}
	return append(errs, e.RollbackErrs...)
}

func stepNoun(op string) string {
	switch op {
	case "fini", "unload":
		return "finalizer"
	default:
		return "initializer"
	}
}
