package link

import "knit/internal/cmini"

// RenamedFile returns a copy of Files[i] with Origins[i].Renames
// applied: the file as this instance compiles, flattens and prints it.
// The copy is the caller's.
func (inst *Instance) RenamedFile(i int) *cmini.File {
	f := cmini.CloneFile(inst.Files[i])
	cmini.RenameGlobals(f, inst.Origins[i].Renames)
	return f
}

// InstanceSymbols returns every program-unique symbol name an instance
// defines after renaming: exported bundle symbols, hidden (suffixed)
// globals, file statics, and assembly-object definitions. It is the
// link-time symbol map that lets the machine attribute a runtime trap
// back to the owning unit instance.
func InstanceSymbols(inst *Instance) []string {
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
		}
	}
	for _, syms := range inst.ExportSyms {
		for _, global := range syms {
			add(global)
		}
	}
	// A declaration's global name is its name under the file's renames.
	for i, f := range inst.Files {
		renames := inst.Origins[i].Renames
		global := func(name string) string {
			if to, ok := renames[name]; ok {
				return to
			}
			return name
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *cmini.VarDecl:
				if !d.Extern {
					add(global(d.Name))
				}
			case *cmini.FuncDecl:
				if d.Body != nil {
					add(global(d.Name))
				}
			}
		}
	}
	for _, o := range inst.Objects {
		for _, s := range o.Syms {
			if s.Defined {
				add(s.Name)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	return out
}

// SymbolOwners maps every symbol defined by the program's instances to
// the path of its owning instance.
func (p *Program) SymbolOwners() map[string]string {
	out := map[string]string{}
	for _, inst := range p.Instances {
		for _, name := range InstanceSymbols(inst) {
			out[name] = inst.Path
		}
	}
	return out
}
