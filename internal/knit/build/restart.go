package build

import (
	"fmt"

	"knit/internal/knit/link"
	"knit/internal/knit/sched"
	"knit/internal/machine"
)

// This file is the build-layer half of component restart: give a unit
// instance (or a whole scope of instances) a fresh start on a live
// machine without rebuilding or rebooting anything else. The
// supervision layer (internal/knit/supervise) drives these from its
// restart policy.

// InstanceByPath finds the unit instance with the given path, searching
// the static program and the dynamic modules live on m. Returns nil
// when no such instance exists.
func (r *Result) InstanceByPath(m *machine.M, path string) *link.Instance {
	for _, inst := range r.LiveProgram(m).Instances {
		if inst.Path == path {
			return inst
		}
	}
	return nil
}

// RestartInstance discards one unit instance's state and
// re-initializes it: the instance's static globals, in the image or in
// its dynamic module, are reset to their load-time
// (initializer-expression) contents, then its initializers re-run in
// schedule order.
//
// Finalizers deliberately do not run first — a restart responds to a
// fault, and a faulted component's finalizers cannot be trusted with
// its corrupted state; the state is discarded wholesale instead.
//
// The restart is transactional: a failing initializer restores the
// machine to its pre-restart state and the error reports Op "restart".
func (r *Result) RestartInstance(m *machine.M, inst *link.Instance) error {
	// A module this build loaded on m reports under its module name,
	// like its calls; a static instance under its path.
	name := inst.Path
	if mod := moduleName(inst); r.stateOf(m).mods[mod] == inst {
		name = mod
	}
	snap := m.Snapshot()
	m.ResetData(link.InstanceSymbols(inst))
	if err := r.runSteps(m, snap, "restart", lifecycleSteps(name, inst, false)); err != nil {
		return err
	}
	r.event(m, name, "restart")
	return nil
}

// RestartScope restarts every unit instance inside scope (see
// sched.ScopeContains): the globals of every instance restarted, static
// or dynamic, are reset, then the scope's initializers re-run in their
// original schedule order, then any dynamic instances in scope re-run
// theirs in load order. The empty scope restarts the whole program.
// Like RestartInstance it is transactional and skips finalizers.
func (r *Result) RestartScope(m *machine.M, scope string) error {
	var insts []*link.Instance // every instance restarted
	var names []string         // and its name in events
	for _, inst := range r.Program.Instances {
		if sched.ScopeContains(scope, inst.Path) {
			insts = append(insts, inst)
			names = append(names, inst.Path)
		}
	}
	var steps []sched.Step
	for _, i := range r.Schedule.InitsForScope(scope) {
		steps = append(steps, r.Schedule.InitSteps[i])
	}
	for _, inst := range r.liveModules(m) {
		if sched.ScopeContains(scope, inst.Path) {
			name := moduleName(inst)
			insts = append(insts, inst)
			names = append(names, name)
			steps = append(steps, lifecycleSteps(name, inst, false)...)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("knit: restart: no instances in scope %q", scope)
	}
	snap := m.Snapshot()
	for _, inst := range insts {
		m.ResetData(link.InstanceSymbols(inst))
	}
	if err := r.runSteps(m, snap, "restart", steps); err != nil {
		return err
	}
	for _, name := range names {
		r.event(m, name, "restart")
	}
	return nil
}
