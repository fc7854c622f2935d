package build

import (
	"errors"
	"sync"

	"knit/internal/compile"
	"knit/internal/knit/constraint"
	"knit/internal/knit/link"
	"knit/internal/knit/sched"
	"knit/internal/machine"
	"knit/internal/obj"
)

// Result is a built system: the elaborated program, its initialization
// schedule, the merged object file, and the loaded machine image.
type Result struct {
	Program  *link.Program
	Schedule *sched.Schedule
	// Object is the fully linked object file (the "a.out"), e.g. for
	// assembly dumps. It shares functions and data with the cache's
	// objects (see obj.Append), so it is read-only.
	Object *obj.File
	// Image is the loaded program with the build's cost model baked in.
	Image *machine.Image
	// ConstraintReport summarizes the §4 check; nil when Options.Check
	// was off.
	ConstraintReport *constraint.Report
	// Timings is the per-phase build-time breakdown.
	Timings Timings
	// Backend is the execution engine machines created from this Result
	// run on (copied from Options.Backend). Mutable until the first
	// NewMachine; the fleet, supervise and observe layers inherit it
	// because every machine they spin up goes through NewMachine or
	// NewMachineFrom.
	Backend machine.Backend

	copts compile.Options
	// sources is the build's virtual filesystem, retained so runtime
	// fallback swaps can compile units that were not instantiated
	// statically.
	sources link.Sources
	// cache is the one the build parsed and compiled through; live
	// operations parse and compile through it too.
	cache *Cache

	mu   sync.Mutex
	mach map[*machine.M]*machState
}

// Cache returns the cache the build parsed and compiled through: the
// caller's Options.Cache, or the build's private one. Live operations on
// the Result — dynamic loads, fallback swaps, reconfiguration — parse
// through its front end and compile through it, so each distinct file is
// parsed and each translation unit compiled once, whatever the number
// of machines.
func (r *Result) Cache() *Cache { return r.cache }

// Observer receives build-layer lifecycle events for one machine:
// every initializer and finalizer step that runs (including rollback
// unwinds and restart re-runs), plus the higher-level "restart",
// "swap", and "unload" operations, each attributed to its unit-instance
// path. internal/knit/observe.Collector implements it; the interface
// lives here so the build layer stays free of observability imports.
type Observer interface {
	LifecycleEvent(instance, op string)
}

// machState tracks what the driver has already done on one machine, so
// Run initializes each machine exactly once and finalizes it once.
type machState struct {
	initDone bool
	finiDone bool
	// mods maps the name of every module this build loaded on the
	// machine to its instance. It is an index, not a record of what is
	// live: the machine's module table is, so entries outlive unloads
	// and rolled-back loads, and a Restore that brings a module back
	// finds it here again.
	mods map[string]*link.Instance
	obs  Observer
}

func (r *Result) stateOf(m *machine.M) *machState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mach == nil {
		r.mach = map[*machine.M]*machState{}
	}
	st, ok := r.mach[m]
	if !ok {
		st = &machState{mods: map[string]*link.Instance{}}
		r.mach[m] = st
	}
	return st
}

// SetObserver installs (or, with nil, removes) the lifecycle observer
// for one machine. Events fire on the goroutine performing the
// lifecycle operation.
func (r *Result) SetObserver(m *machine.M, obs Observer) {
	r.stateOf(m).obs = obs
}

// event reports one lifecycle step to the machine's observer, if any.
func (r *Result) event(m *machine.M, instance, op string) {
	if obs := r.stateOf(m).obs; obs != nil {
		obs.LifecycleEvent(instance, op)
	}
}

// NewMachine creates a fresh machine for the built image. Device
// builtins (console, serial, stopwatch) are the caller's to install
// before running.
func (r *Result) NewMachine() *machine.M {
	m := machine.New(r.Image)
	m.SetBackend(r.Backend)
	return m
}

// PostInitSnapshot builds a prototype machine, lets setup install the
// embedder's device builtins (setup may be nil), runs the program's
// initializers on it, and returns the resulting snapshot. The snapshot
// is the fleet spin-up currency: NewMachineFrom clones a ready-to-serve
// machine from it — one memory copy, no re-run of the init schedule.
// The prototype is forgotten, and its memory released, whether or not
// it succeeds; only the snapshot survives.
func (r *Result) PostInitSnapshot(setup func(*machine.M) error) (*machine.Snapshot, error) {
	m := r.NewMachine()
	defer r.Forget(m)
	if setup != nil {
		if err := setup(m); err != nil {
			return nil, err
		}
	}
	if err := r.RunInit(m); err != nil {
		return nil, err
	}
	return m.Snapshot(), nil
}

// NewMachineFrom creates a machine whose program state is restored from
// a snapshot of this build (text and symbol tables shared read-only via
// the Image; data cloned from the snapshot). When the snapshot was taken
// after RunInit — the PostInitSnapshot case — the new machine is marked
// initialized, so Run and the supervisor skip the init schedule.
// Builtins are not part of snapshots; the caller installs its own.
func (r *Result) NewMachineFrom(snap *machine.Snapshot, initialized bool) *machine.M {
	m := r.NewMachine()
	m.Restore(snap)
	if initialized {
		r.stateOf(m).initDone = true
	}
	return m
}

// Forget drops the per-machine state entry for a discarded machine, so
// prototypes and respawned-away machines do not accumulate in the state
// map (it holds the machine, its module index, and its observer), and
// releases the machine, so its memory serves the next one
// (machine.M.Release). Call it only for a machine that will not run
// again.
func (r *Result) Forget(m *machine.M) {
	r.mu.Lock()
	delete(r.mach, m)
	r.mu.Unlock()
	m.Release()
}

// Export resolves a top-level export bundle symbol to its global
// (C-level) name, suitable for machine.M.Run.
func (r *Result) Export(bundle, sym string) (string, error) {
	return r.Program.ExportSymbol(bundle, sym)
}

// RunInit runs the program's initializers on m, in schedule order. It
// is idempotent per machine: a second call (including the implicit one
// inside Run) is a no-op.
//
// Initialization is transactional. When initializer k fails, the
// finalizers of the components that did finish initializing run in
// reverse schedule order (respecting the fine-grained fini dependency
// ranks from internal/knit/sched — a component whose own initializer
// never completed is not finalized), the machine is restored to its
// pre-init snapshot, and the returned *LifecycleError names the failing
// unit instance, the initializer, and any finalizer failures collected
// during the rollback. After the error, retrying RunInit is safe: it
// starts again from a clean machine.
func (r *Result) RunInit(m *machine.M) error {
	st := r.stateOf(m)
	if st.initDone {
		return nil
	}
	snap := m.Snapshot()
	for i, name := range r.Schedule.Inits {
		_, err := m.Run(name)
		r.event(m, r.Schedule.InitSteps[i].Instance, "init")
		if err == nil {
			continue
		}
		step := r.Schedule.InitSteps[i]
		lerr := &LifecycleError{
			Op:     "init",
			Unit:   step.Instance,
			Func:   step.Func,
			Global: step.Global,
			Err:    err,
		}
		// Unwind: finalize the fully initialized components, most
		// recently ready first, collecting (not masking) any failures.
		for _, j := range r.Schedule.FinsReadyAfter(i) {
			fin := r.Schedule.FinSteps[j]
			r.event(m, fin.Instance, "fini")
			if _, ferr := m.Run(fin.Global); ferr != nil {
				lerr.RollbackErrs = append(lerr.RollbackErrs, &LifecycleError{
					Op: "fini", Unit: fin.Instance, Func: fin.Func, Global: fin.Global, Err: ferr,
				})
			}
		}
		m.Restore(snap)
		lerr.RolledBack = true
		return lerr
	}
	st.initDone = true
	return nil
}

// RunFini runs the program's finalizers on m in schedule order (reverse
// initialization readiness). Like RunInit it runs at most once per
// machine. A failing finalizer does not stop the ones after it — every
// component gets its shutdown chance — and the failures are joined with
// errors.Join, so errors.Is/errors.As reach each individual finalizer's
// *LifecycleError (and the *machine.Trap inside it) instead of callers
// string-matching a concatenated message.
func (r *Result) RunFini(m *machine.M) error {
	st := r.stateOf(m)
	if st.finiDone {
		return nil
	}
	var errs []error
	for i, name := range r.Schedule.Fins {
		_, err := m.Run(name)
		r.event(m, r.Schedule.FinSteps[i].Instance, "fini")
		if err == nil {
			continue
		}
		step := r.Schedule.FinSteps[i]
		errs = append(errs, &LifecycleError{
			Op: "fini", Unit: step.Instance, Func: step.Func, Global: step.Global, Err: err,
		})
	}
	st.finiDone = true
	return errors.Join(errs...)
}

// Run executes one exported function with full lifecycle: initializers
// first (once per machine), then the function named by the top unit's
// export bundle and symbol, then the finalizers — the same order a Knit
// kernel's generated main would use.
func (r *Result) Run(m *machine.M, bundle, sym string, args ...int64) (int64, error) {
	global, err := r.Export(bundle, sym)
	if err != nil {
		return 0, err
	}
	if err := r.RunInit(m); err != nil {
		return 0, err
	}
	v, err := m.Run(global, args...)
	if err != nil {
		return 0, err
	}
	if err := r.RunFini(m); err != nil {
		return 0, err
	}
	return v, nil
}
