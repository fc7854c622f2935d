package build

import (
	"fmt"

	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// This file implements the runtime half of the paper's interposition
// story (§2.3): replacing a failing unit instance with its declared
// fallback unit on a live machine, without touching the neighbors it is
// wired to. The failing instance's code stays loaded (static text
// cannot be unloaded) but becomes unreachable: every direct call to its
// export symbols is redirected — machine.M.Interpose — to the freshly
// loaded fallback, which is wired to the very same import providers.

// SwapFallback loads the fallback unit declared for failing and
// redirects the failing instance's exports to it. The fallback must be
// an atomic unit exporting the same bundles (same locals, same types)
// and importing a subset of failing's imports; it is wired to the same
// providers failing was wired to, elaborated and compiled fresh, loaded
// as a dynamic module, initialized, and interposed over failing's
// export symbols.
//
// The whole swap is transactional: any failure — elaboration, a
// constraint of the machine loader, a fallback initializer, a redirect
// — restores the machine to its pre-swap snapshot (including the
// redirect table), so a fault during the swap leaves zero residue.
//
// SwapFallback does not unload anything: when failing is itself a
// previously swapped-in dynamic fallback, interposition re-points the
// old redirects at the new module (path compression), after which the
// caller may Unload the superseded module and Unpose its stale keys —
// see ReleaseSuperseded.
func (r *Result) SwapFallback(m *machine.M, failing *link.Instance) (*LoadedUnit, error) {
	fbName := failing.Unit.Fallback
	if fbName == "" {
		return nil, fmt.Errorf("knit: swap: unit %s declares no fallback", failing.Unit.Name)
	}
	reg := r.Program.Registry
	fb, ok := reg.Units[fbName]
	if !ok {
		return nil, fmt.Errorf("knit: swap: fallback unit %q of %s is not declared",
			fbName, failing.Unit.Name)
	}

	// The fallback must be export-compatible: exactly the same export
	// locals with the same bundle types, so its symbols are a drop-in
	// replacement for every caller wired to failing.
	if err := sameExports(failing.Unit, fb); err != nil {
		return nil, fmt.Errorf("knit: swap %s -> %s: %w", failing.Unit.Name, fbName, err)
	}

	// Wire the fallback's imports to the same providers failing uses.
	env := map[string]*link.Wire{}
	for _, imp := range fb.Imports {
		w, ok := failing.ImportWires[imp.Local]
		if !ok || w == nil {
			return nil, fmt.Errorf(
				"knit: swap %s -> %s: fallback import %q is not an import of the failing unit",
				failing.Unit.Name, fbName, imp.Local)
		}
		env[imp.Local] = w
	}

	// Elaborating against the live program keeps the fallback's instance
	// ID clear of the static instances and of the modules live on m.
	inst, err := link.ElaborateDynamicEnv(reg, r.LiveProgram(m), fbName, r.sources, env, r.cache.FrontEnd())
	if err != nil {
		return nil, err
	}
	// Circuit-break: every export symbol of the failing instance now
	// resolves to the fallback's implementation. A redirect failure
	// mid-way rolls the load back, which also rewinds the redirects
	// already installed.
	lu, err := r.load(m, inst, "swap", func() error {
		for local, syms := range failing.ExportSyms {
			for sym, global := range syms {
				target, ok := inst.ExportSyms[local][sym]
				if !ok {
					return fmt.Errorf("knit: swap %s -> %s: fallback bundle %q lacks symbol %q",
						failing.Unit.Name, fbName, local, sym)
				}
				if err := m.Interpose(global, target); err != nil {
					return fmt.Errorf("knit: swap %s -> %s: %w", failing.Unit.Name, fbName, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.event(m, failing.Path, "swap")
	return lu, nil
}

// ReleaseSuperseded unloads a dynamic module that a later SwapFallback
// has interposed away (its finalizers run as usual) and drops the stale
// redirect entries that were keyed on its export symbols. Call it after
// the swap has succeeded; a finalizer failure leaves the module loaded
// but still bypassed, and retrying later is safe.
func (lu *LoadedUnit) ReleaseSuperseded(m *machine.M) error {
	if err := lu.Unload(m); err != nil {
		return err
	}
	for _, syms := range lu.Instance.ExportSyms {
		for _, global := range syms {
			m.Unpose(global)
		}
	}
	return nil
}

// sameExports checks that two units export exactly the same local
// bundle names with the same bundle types.
func sameExports(a, b *lang.Unit) error {
	want := map[string]string{}
	for _, e := range a.Exports {
		want[e.Local] = e.Type
	}
	for _, e := range b.Exports {
		typ, ok := want[e.Local]
		if !ok {
			return fmt.Errorf("fallback exports %q, which %s does not", e.Local, a.Name)
		}
		if typ != e.Type {
			return fmt.Errorf("export %q has bundle type %s in %s but %s in %s",
				e.Local, typ, a.Name, e.Type, b.Name)
		}
		delete(want, e.Local)
	}
	for local := range want {
		return fmt.Errorf("fallback does not export %q", local)
	}
	return nil
}
