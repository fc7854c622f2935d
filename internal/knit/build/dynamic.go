package build

import (
	"fmt"
	"slices"

	"knit/internal/knit/constraint"
	"knit/internal/knit/link"
	"knit/internal/knit/sched"
	"knit/internal/machine"
	"knit/internal/obj"
)

// DynamicUnit describes a module to link into a running machine — the
// paper's §8 dynamic-linking extension. The unit must be atomic; its
// imports are wired, by Wiring, to top-level exports of the base program
// (or of previously loaded modules on the same machine).
type DynamicUnit struct {
	// Unit names the atomic unit to instantiate.
	Unit string
	// UnitFiles holds additional unit-definition files; they extend the
	// base build's registry and may not redefine its declarations.
	UnitFiles map[string]string
	// Sources is the virtual filesystem for the unit's files{} section.
	Sources link.Sources
	// Wiring maps the unit's import locals to export names visible on the
	// machine.
	Wiring map[string]string
	// Check re-runs the constraint checker over the whole live
	// configuration — base program plus every module already loaded on
	// this machine plus the new one — and rejects the load on a
	// violation, before any code reaches the machine.
	Check bool
}

// LoadedUnit is a successfully loaded dynamic module. It is the handle
// for the module's exports and for unloading it again.
type LoadedUnit struct {
	Instance *link.Instance

	res     *Result
	modName string // machine-level module name, e.g. "dynamic/MonitorU#4"
}

// Name returns the module's machine-level name (unique per live module
// on a machine).
func (lu *LoadedUnit) Name() string { return lu.modName }

// ExportSymbol resolves one of the module's export bundle symbols to its
// global name, suitable for machine.M.Run.
func (lu *LoadedUnit) ExportSymbol(bundle, sym string) (string, error) {
	name, ok := lu.Instance.ExportSyms[bundle][sym]
	if !ok {
		return "", fmt.Errorf("knit: dynamic unit %s: bundle %q has no symbol %q",
			lu.Instance.Unit.Name, bundle, sym)
	}
	return name, nil
}

// LoadDynamic elaborates du.Unit against the live machine m, re-checks
// constraints at the dynamic boundary when du.Check is set, compiles the
// instance, loads it into m, and runs its initializers. On any error —
// including a constraint violation or a failing initializer — nothing
// stays loaded and the machine is restored to its pre-load state, so a
// rejected module leaves zero residue. A loaded module lives until
// LoadedUnit.Unload (or machine reset); its finalizers run at unload.
func (r *Result) LoadDynamic(m *machine.M, du DynamicUnit) (*LoadedUnit, error) {
	fe := r.cache.FrontEnd()
	files, err := fe.ParseUnitFiles(du.UnitFiles)
	if err != nil {
		return nil, err
	}
	reg, err := link.NewRegistry(append(slices.Clip(r.Program.Registry.Files), files...)...)
	if err != nil {
		return nil, err
	}

	// The elaboration base is the live program, so fresh instance IDs
	// stay unique and modules can wire to modules.
	live := r.LiveProgram(m)
	live.Registry = reg
	inst, err := link.ElaborateDynamic(reg, live, du.Unit, du.Sources, du.Wiring, fe)
	if err != nil {
		return nil, err
	}

	// Constraint check over the whole live configuration, before any of
	// the module's code is compiled or loaded.
	if du.Check {
		live.Instances = append(live.Instances, inst)
		if _, err := constraint.Check(live); err != nil {
			return nil, fmt.Errorf("knit: dynamic unit %s rejected: %w", du.Unit, err)
		}
	}
	return r.LoadElaborated(m, inst)
}

// moduleName is the machine-level name of a dynamic instance's module.
// It carries the instance ID so repeated loads of the same unit stay
// distinguishable, and it is also the module's attribution: calls,
// traps and lifecycle steps of the module all report under it.
func moduleName(inst *link.Instance) string {
	return fmt.Sprintf("%s#%d", inst.Path, inst.ID)
}

// liveModules returns the modules this build loaded that are live on m,
// in load order. The machine's module table is the record of what is
// live — Snapshot and Restore cover it — and the per-machine index only
// maps its names back to instances, so the list follows every restore.
func (r *Result) liveModules(m *machine.M) []*link.Instance {
	st := r.stateOf(m)
	var out []*link.Instance
	for _, name := range m.DynModules() {
		if inst := st.mods[name]; inst != nil {
			out = append(out, inst)
		}
	}
	return out
}

// load is the one transactional load path: compile inst through the
// build's cache, ship it to m
// as a module, and run its initializers, with a failing initializer
// reported as op. then, when non-nil, runs last under the same
// snapshot; any failure restores the pre-load state.
func (r *Result) load(m *machine.M, inst *link.Instance, op string, then func() error) (*LoadedUnit, error) {
	objs, _, err := runCompileJobs(fileJobs(nil, inst), r.copts, r.cache, 0)
	if err != nil {
		return nil, err
	}
	o := obj.NewFile(inst.Path)
	for _, f := range append(objs, inst.Objects...) {
		obj.Append(o, f)
	}
	name := moduleName(inst)
	snap := m.Snapshot()
	if err := m.LoadDynamicAs(name, name, o); err != nil {
		return nil, err
	}
	r.stateOf(m).mods[name] = inst
	if err := r.runSteps(m, snap, op, lifecycleSteps(name, inst, false)); err != nil {
		return nil, err
	}
	if then != nil {
		if err := then(); err != nil {
			m.Restore(snap)
			return nil, err
		}
	}
	return &LoadedUnit{Instance: inst, res: r, modName: name}, nil
}

// lifecycleSteps lists inst's initializers in declaration order, or
// its finalizers in reverse, as steps of the unit named name.
func lifecycleSteps(name string, inst *link.Instance, fini bool) []sched.Step {
	var steps []sched.Step
	for _, ini := range inst.Inits {
		if ini.Finalizer == fini {
			steps = append(steps, sched.Step{
				Global: ini.GlobalName, Func: ini.Func, Instance: name, Bundle: ini.Bundle,
			})
		}
	}
	if fini {
		slices.Reverse(steps)
	}
	return steps
}

// runSteps is the step runner of loads, restarts and unloads: it runs
// steps in order, reporting each to m's observer as "fini" for an
// unload and "init" otherwise. On the first failure it restores snap
// and returns the step's *LifecycleError for op.
func (r *Result) runSteps(m *machine.M, snap *machine.Snapshot, op string, steps []sched.Step) error {
	ev := "init"
	if op == "unload" {
		ev = "fini"
	}
	for _, s := range steps {
		_, err := m.Run(s.Global)
		r.event(m, s.Instance, ev)
		if err != nil {
			m.Restore(snap)
			return &LifecycleError{
				Op: op, Unit: s.Instance, Func: s.Func, Global: s.Global, Err: err, RolledBack: true,
			}
		}
	}
	return nil
}

// Unload reverses a LoadDynamic on m: it verifies that no still-live
// module imports this module's exports (refusing with an error that
// names the dependent, mirroring the load-time constraint re-check),
// runs the module's finalizers in reverse declaration order, and
// reclaims its text, data, and symbol-table entries from the machine.
// Unloading is transactional: if a finalizer fails, the machine is
// restored to its pre-unload state, the module stays loaded, and the
// returned *LifecycleError names the failing finalizer.
func (lu *LoadedUnit) Unload(m *machine.M) error {
	r := lu.res
	if r == nil {
		return fmt.Errorf("knit: unload: module handle was not produced by LoadDynamic")
	}
	live := r.liveModules(m)
	if !slices.Contains(live, lu.Instance) {
		return fmt.Errorf("knit: unload %s: module is not loaded on this machine", lu.modName)
	}
	// Liveness re-check at the dynamic boundary: a module whose exports
	// are wired into a still-live importer must stay.
	for _, other := range live {
		for local, w := range other.ImportWires {
			if w != nil && w.Provider == lu.Instance {
				return fmt.Errorf(
					"knit: cannot unload %s: live module %s imports %q from its bundle %q (unload the importer first)",
					lu.modName, other.Path, local, w.Bundle)
			}
		}
	}
	snap := m.Snapshot()
	if err := r.runSteps(m, snap, "unload", lifecycleSteps(lu.modName, lu.Instance, true)); err != nil {
		return err
	}
	if err := m.UnloadDynamic(lu.modName); err != nil {
		m.Restore(snap)
		return err
	}
	r.event(m, lu.modName, "unload")
	return nil
}
