package link

import "knit/internal/diag"

// ElaborateDynamic instantiates one atomic unit against an already
// elaborated base program — the linking half of Knit's dynamic-linking
// extension (paper §8). The unit's imports are wired, by name, to the
// base program's top-level exports; its exports become new symbols that
// the caller can invoke after loading the compiled instance into a
// running machine.
//
// Dynamic units extend a system; they cannot rewire the base program's
// existing static links (interposition remains a static-link operation).
// Sources are parsed through fe, as Elaborate's are.
func ElaborateDynamic(reg *Registry, base *Program, unitName string,
	sources Sources, wiring map[string]string, fe *FrontEnd) (*Instance, error) {
	u, ok := reg.Units[unitName]
	if !ok {
		return nil, diag.Errorf(diag.Pos{}, "unknown unit %s", unitName)
	}
	env := map[string]*Wire{}
	for _, imp := range u.Imports {
		target, ok := wiring[imp.Local]
		if !ok {
			return nil, diag.Errorf(imp.Pos, "dynamic unit %s: import %q not wired", unitName, imp.Local)
		}
		w, ok := base.Exports[target]
		if !ok {
			return nil, diag.Errorf(imp.Pos,
				"dynamic unit %s: base program has no top-level export %q", unitName, target)
		}
		env[imp.Local] = w
	}
	for local := range wiring {
		known := false
		for _, imp := range u.Imports {
			if imp.Local == local {
				known = true
			}
		}
		if !known {
			return nil, diag.Errorf(u.Pos, "dynamic unit %s has no import %q", unitName, local)
		}
	}
	return ElaborateDynamicEnv(reg, base, unitName, sources, env, fe)
}

// ElaborateDynamicEnv is ElaborateDynamic with the import environment
// given directly as wires instead of top-level export names. This is
// what runtime interposition needs: a fallback unit is wired to the
// *same* providers as the instance it replaces (its ImportWires), which
// are internal wires that generally are not top-level exports.
func ElaborateDynamicEnv(reg *Registry, base *Program, unitName string,
	sources Sources, env map[string]*Wire, fe *FrontEnd) (*Instance, error) {
	u, ok := reg.Units[unitName]
	if !ok {
		return nil, diag.Errorf(diag.Pos{}, "unknown unit %s", unitName)
	}
	if u.IsCompound() {
		return nil, diag.Errorf(u.Pos, "dynamic unit %s must be atomic (link compound units statically)", unitName)
	}
	for _, imp := range u.Imports {
		w, ok := env[imp.Local]
		if !ok || w == nil {
			return nil, diag.Errorf(imp.Pos, "dynamic unit %s: import %q not wired", unitName, imp.Local)
		}
		if w.Type != imp.Type {
			return nil, diag.Errorf(imp.Pos,
				"dynamic unit %s: import %q has bundle type %s, wired bundle has %s",
				unitName, imp.Local, imp.Type, w.Type)
		}
	}
	nextID := 0
	for _, inst := range base.Instances {
		if inst.ID >= nextID {
			nextID = inst.ID + 1
		}
	}
	e := &elab{reg: reg, sources: sources, fe: fe, nextID: nextID}
	tmp := &Program{Registry: reg, Top: u, Exports: map[string]*Wire{}}
	if _, err := e.elaborateAtomic(u, env, "dynamic/"+unitName, tmp); err != nil {
		return nil, err
	}
	if err := e.resolveSymbols(tmp); err != nil {
		return nil, err
	}
	return tmp.Instances[0], nil
}

// DynamicExports returns the wires a dynamic instance exports, keyed by
// export local name, so callers can register them for later loads.
func DynamicExports(inst *Instance) map[string]*Wire {
	out := map[string]*Wire{}
	for _, exp := range inst.Unit.Exports {
		out[exp.Local] = &Wire{Provider: inst, Bundle: exp.Local, Type: exp.Type}
	}
	return out
}
