package build

import (
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// This file is the build layer's doorway for the live-reconfiguration
// engine (internal/knit/reconfigure). The planner and applier work in
// terms of elaborated link.Instances they wire themselves — against live
// instances, not just top-level exports — so they need lower-level
// entry points than LoadDynamic: a view of the whole live configuration
// and a load step that takes an already-elaborated instance.

// LiveProgram returns the live configuration of machine m as a program:
// the static instances plus every module currently loaded on m, with
// the modules' exports merged over the static export table. The clone is
// independent of the Result's internals — elaborating against it cannot
// race with other machines loading concurrently.
func (r *Result) LiveProgram(m *machine.M) *link.Program {
	live := &link.Program{
		Registry:  r.Program.Registry,
		Top:       r.Program.Top,
		Instances: append([]*link.Instance(nil), r.Program.Instances...),
		Exports:   map[string]*link.Wire{},
	}
	for name, w := range r.Program.Exports {
		live.Exports[name] = w
	}
	for _, inst := range r.liveModules(m) {
		live.Instances = append(live.Instances, inst)
		for name, w := range link.DynamicExports(inst) {
			live.Exports[name] = w
		}
	}
	return live
}

// LoadElaborated loads an already-elaborated instance onto m: compile
// (through the build's cache), ship, run initializers. The caller did the elaboration (typically with
// link.ElaborateDynamicEnv against LiveProgram, so the instance's ID and
// renamed symbols are fresh for this machine) and any constraint
// checking. Like LoadDynamic, the operation is transactional — a load or
// initializer failure restores the machine and leaves zero residue —
// and the returned handle supports Unload.
func (r *Result) LoadElaborated(m *machine.M, inst *link.Instance) (*LoadedUnit, error) {
	return r.load(m, inst, "dynamic-init", nil)
}

// Notify reports a lifecycle event for a unit instance on m to the
// machine's observer, if any — the reconfigure layer's hook into the
// same stream RunInit, restarts, and swaps feed.
func (r *Result) Notify(m *machine.M, instance, op string) {
	r.event(m, instance, op)
}
