package link

import (
	"fmt"
	"sort"
	"strings"

	"knit/internal/asm"
	"knit/internal/cmini"
	"knit/internal/diag"
	"knit/internal/knit/lang"
	"knit/internal/obj"
)

// AmbientPrefix marks symbols that bypass the import discipline: they
// name hardware/runtime entry points (simulated devices) provided by the
// machine as builtins, e.g. __console_out. They are never renamed.
const AmbientPrefix = "__"

// Sources maps the file names mentioned in units' files{} sections to
// cmini source text (the build's virtual filesystem).
type Sources map[string]string

// Wire identifies the provider of a bundle: an instance and the local
// name of one of its export bundles. Wires are created as placeholders
// during compound-unit elaboration and patched once the providing
// sub-unit is elaborated, which is what allows cyclic linking graphs.
type Wire struct {
	Provider *Instance
	Bundle   string // provider's export local name
	Type     string // bundle type name
}

// Init describes one initializer or finalizer of an instance.
type Init struct {
	Func       string // name as written in the unit file
	GlobalName string // renamed, program-unique C-level name
	Bundle     string // export bundle it initializes
	Finalizer  bool
	Needs      []string // import locals this function depends on
}

// Instance is one elaborated atomic unit.
type Instance struct {
	ID   int
	Path string // e.g. "LogServe/Log#1", for diagnostics
	Unit *lang.Unit
	// Files are the unit's C sources as the front end parsed them:
	// shared with every instance of the unit and every elaboration on
	// the front end, so never changed. RenamedFile(i) is Files[i] as
	// this instance compiles it, renamed by Origins[i].Renames.
	Files   []*cmini.File
	Origins []FileOrigin
	// Objects holds the unit's assembly-implemented files (paper: "Knit
	// can actually work with C, assembly, and object code"), already
	// instance-renamed at the object level — the objcopy path. Assembly
	// units are never flattened; they link as objects.
	Objects     []*obj.File
	asmRaw      []*obj.File // assembled but not yet renamed; the front end's, so only read
	ImportWires map[string]*Wire
	// ExportSyms maps export local -> bundle symbol -> program-unique
	// global name.
	ExportSyms map[string]map[string]string
	// ExportNeeds maps export local -> import locals it depends on.
	ExportNeeds map[string][]string
	Inits       []*Init // initializers and finalizers, in declaration order
}

// FileOrigin is what an instance's C file is made from: the source
// text it was parsed from, and the renames that make it the instance's,
// of the identifiers the file declares or references (renames of
// identifiers it never mentions are left out). The renamed file is a
// function of its name, Text and Renames, so build.Cache keys its
// compiled object by them without renaming or printing the file.
type FileOrigin struct {
	Text    string
	Renames map[string]string
}

// ImportType returns the bundle type name for an import local.
func (inst *Instance) ImportType(local string) string {
	for _, b := range inst.Unit.Imports {
		if b.Local == local {
			return b.Type
		}
	}
	return ""
}

// Program is a fully elaborated system: a flat set of instances plus the
// top unit's export wiring.
type Program struct {
	Registry  *Registry
	Top       *lang.Unit
	Instances []*Instance
	// Exports maps the top unit's export locals to their providers.
	Exports map[string]*Wire
}

// ExportSymbol resolves a top-level export bundle symbol to its global
// (C-level) name.
func (p *Program) ExportSymbol(bundleLocal, sym string) (string, error) {
	w, ok := p.Exports[bundleLocal]
	if !ok {
		return "", fmt.Errorf("knit: no top-level export bundle %q", bundleLocal)
	}
	name, ok := w.Provider.ExportSyms[w.Bundle][sym]
	if !ok {
		return "", fmt.Errorf("knit: bundle %q has no symbol %q", bundleLocal, sym)
	}
	return name, nil
}

// Elaborate instantiates topName (usually a compound unit) and every
// unit it transitively links, wiring all imports to exports. Sources
// are parsed through fe, so elaborations sharing it parse each distinct
// file once; a nil fe parses into a fresh one.
func Elaborate(reg *Registry, topName string, sources Sources, fe *FrontEnd) (*Program, error) {
	top, ok := reg.Units[topName]
	if !ok {
		return nil, diag.Errorf(diag.Pos{}, "unknown unit %q", topName)
	}
	if len(top.Imports) > 0 {
		return nil, diag.Errorf(top.Pos, "top unit %s has unsatisfied imports (%d); link it inside a compound unit",
			topName, len(top.Imports))
	}
	if fe == nil {
		fe = &FrontEnd{}
	}
	e := &elab{reg: reg, sources: sources, fe: fe}
	prog := &Program{Registry: reg, Top: top, Exports: map[string]*Wire{}}
	exports, err := e.elaborate(top, map[string]*Wire{}, topName, prog)
	if err != nil {
		return nil, err
	}
	prog.Exports = exports
	if err := e.resolveSymbols(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

type elab struct {
	reg     *Registry
	sources Sources
	fe      *FrontEnd
	nextID  int
	depth   int
}

// maxDepth bounds unit nesting (guards against recursive compounds).
const maxDepth = 64

// elaborate instantiates unit u with the given import environment and
// returns wires for its exports.
func (e *elab) elaborate(u *lang.Unit, env map[string]*Wire, path string, prog *Program) (map[string]*Wire, error) {
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > maxDepth {
		return nil, diag.Errorf(u.Pos, "unit nesting too deep at %s (recursive compound unit?)", path)
	}
	for _, imp := range u.Imports {
		w, ok := env[imp.Local]
		if !ok {
			return nil, diag.Errorf(u.Pos, "%s: import %q not supplied", path, imp.Local)
		}
		if w.Type != imp.Type {
			return nil, diag.Errorf(u.Pos, "%s: import %q has bundle type %s, supplied %s",
				path, imp.Local, imp.Type, w.Type)
		}
	}
	if u.IsCompound() {
		return e.elaborateCompound(u, env, path, prog)
	}
	return e.elaborateAtomic(u, env, path, prog)
}

func (e *elab) elaborateCompound(u *lang.Unit, env map[string]*Wire, path string, prog *Program) (map[string]*Wire, error) {
	// Scope: compound imports plus placeholder wires for each link out.
	scope := map[string]*Wire{}
	for _, imp := range u.Imports {
		scope[imp.Local] = env[imp.Local]
	}
	// Create placeholders with statically known bundle types so cyclic
	// references among siblings typecheck before elaboration.
	for li, line := range u.Links {
		child, ok := e.reg.Units[line.Unit]
		if !ok {
			return nil, diag.Errorf(line.Pos, "%s: unknown unit %q in link", path, line.Unit)
		}
		if len(line.Outs) != len(child.Exports) {
			return nil, diag.Errorf(line.Pos, "%s: unit %s exports %d bundles, link line binds %d",
				path, line.Unit, len(child.Exports), len(line.Outs))
		}
		if len(line.Ins) != len(child.Imports) {
			return nil, diag.Errorf(line.Pos, "%s: unit %s imports %d bundles, link line supplies %d",
				path, line.Unit, len(child.Imports), len(line.Ins))
		}
		for oi, out := range line.Outs {
			if _, dup := scope[out]; dup {
				return nil, diag.Errorf(line.Pos, "%s: name %q bound twice in compound unit %s (line %d)",
					path, out, u.Name, li+1)
			}
			scope[out] = &Wire{Type: child.Exports[oi].Type}
		}
	}
	// Elaborate children, patching placeholders.
	for li, line := range u.Links {
		child := e.reg.Units[line.Unit]
		childEnv := map[string]*Wire{}
		for ii, argName := range line.Ins {
			w, ok := scope[argName]
			if !ok {
				return nil, diag.Errorf(line.Pos, "%s: unknown name %q supplied to %s", path, argName, line.Unit)
			}
			childEnv[child.Imports[ii].Local] = w
		}
		childPath := fmt.Sprintf("%s/%s#%d", path, line.Unit, li)
		childExports, err := e.elaborate(child, childEnv, childPath, prog)
		if err != nil {
			return nil, err
		}
		for oi, out := range line.Outs {
			src := childExports[child.Exports[oi].Local]
			dst := scope[out]
			dst.Provider = src.Provider
			dst.Bundle = src.Bundle
			// Type already set; verify agreement.
			if src.Type != dst.Type {
				return nil, diag.Errorf(line.Pos, "%s: export type mismatch for %q: %s vs %s",
					path, out, src.Type, dst.Type)
			}
		}
	}
	// Compound exports: drawn from scope by local name.
	out := map[string]*Wire{}
	for _, exp := range u.Exports {
		w, ok := scope[exp.Local]
		if !ok {
			return nil, diag.Errorf(u.Pos, "%s: exported name %q is not bound in the link section", path, exp.Local)
		}
		if w.Type != exp.Type {
			return nil, diag.Errorf(u.Pos, "%s: export %q has type %s, bound value has type %s",
				path, exp.Local, exp.Type, w.Type)
		}
		out[exp.Local] = w
	}
	return out, nil
}

func (e *elab) elaborateAtomic(u *lang.Unit, env map[string]*Wire, path string, prog *Program) (map[string]*Wire, error) {
	if len(u.Files) == 0 {
		return nil, diag.Errorf(u.Pos, "%s: atomic unit %s has no files", path, u.Name)
	}
	inst := &Instance{
		ID:          e.nextID,
		Path:        path,
		Unit:        u,
		ImportWires: map[string]*Wire{},
		ExportSyms:  map[string]map[string]string{},
		ExportNeeds: map[string][]string{},
	}
	e.nextID++
	for _, imp := range u.Imports {
		inst.ImportWires[imp.Local] = env[imp.Local]
	}
	// Export symbol global names.
	suffix := fmt.Sprintf("__k%d", inst.ID)
	cidents, err := cidentMap(e.reg, u)
	if err != nil {
		return nil, err
	}
	for _, exp := range u.Exports {
		bt := e.reg.BundleTypes[exp.Type]
		if bt == nil {
			return nil, diag.Errorf(exp.Pos, "%s: unknown bundle type %q", path, exp.Type)
		}
		syms := map[string]string{}
		for _, s := range bt.Syms {
			syms[s] = cidents[bkey{exp.Local, s}] + suffix
		}
		inst.ExportSyms[exp.Local] = syms
	}
	// Dependency clauses.
	if err := e.resolveDepends(u, inst, path); err != nil {
		return nil, err
	}
	// Parse source files; their renames are worked out in
	// resolveSymbols once all wires are patched. Files ending in ".s"
	// are assembly and are assembled to objects directly. The parsed
	// trees are the front end's, shared with every elaboration using
	// it, so they are only ever read or cloned.
	for _, fname := range u.Files {
		src, ok := e.sources[fname]
		if !ok {
			return nil, diag.Errorf(u.Pos, "%s: source file %q not provided", path, fname)
		}
		if strings.HasSuffix(fname, ".s") {
			o, err := e.fe.asm.get(fname, src, asm.Parse)
			if err != nil {
				return nil, fmt.Errorf("unit %s: %w", u.Name, err)
			}
			inst.asmRaw = append(inst.asmRaw, o)
			continue
		}
		f, err := e.fe.c.get(fname, src, cmini.Parse)
		if err != nil {
			return nil, fmt.Errorf("unit %s: %w", u.Name, err)
		}
		inst.Files = append(inst.Files, f)
		inst.Origins = append(inst.Origins, FileOrigin{Text: src})
	}
	prog.Instances = append(prog.Instances, inst)
	out := map[string]*Wire{}
	for _, exp := range u.Exports {
		out[exp.Local] = &Wire{Provider: inst, Bundle: exp.Local, Type: exp.Type}
	}
	return out, nil
}

// resolveDepends expands a unit's depends clauses onto the instance.
func (e *elab) resolveDepends(u *lang.Unit, inst *Instance, path string) error {
	importLocals := map[string]bool{}
	for _, b := range u.Imports {
		importLocals[b.Local] = true
	}
	exportLocals := map[string]bool{}
	for _, b := range u.Exports {
		exportLocals[b.Local] = true
	}
	initByFunc := map[string]*Init{}
	for _, d := range u.Inits {
		if !exportLocals[d.Bundle] {
			return diag.Errorf(d.Pos, "%s: %s %q is for unknown export bundle %q",
				path, initOrFin(d.Finalizer), d.Func, d.Bundle)
		}
		if _, dup := initByFunc[d.Func]; dup {
			return diag.Errorf(d.Pos, "%s: duplicate initializer/finalizer %q", path, d.Func)
		}
		ini := &Init{Func: d.Func, Bundle: d.Bundle, Finalizer: d.Finalizer}
		inst.Inits = append(inst.Inits, ini)
		initByFunc[d.Func] = ini
	}
	expandRHS := func(rhs []string, pos diag.Pos) ([]string, error) {
		var out []string
		for _, t := range rhs {
			if t == lang.ImportsKeyword {
				for _, b := range u.Imports {
					out = append(out, b.Local)
				}
				continue
			}
			if !importLocals[t] {
				return nil, diag.Errorf(pos, "%s: depends right-hand side %q is not an import", path, t)
			}
			out = append(out, t)
		}
		return out, nil
	}
	for _, d := range u.Depends {
		rhs, err := expandRHS(d.RHS, d.Pos)
		if err != nil {
			return err
		}
		var lhs []string
		for _, t := range d.LHS {
			if t == lang.ExportsKeyword {
				for _, b := range u.Exports {
					lhs = append(lhs, b.Local)
				}
				continue
			}
			lhs = append(lhs, t)
		}
		for _, t := range lhs {
			switch {
			case exportLocals[t]:
				inst.ExportNeeds[t] = appendUnique(inst.ExportNeeds[t], rhs)
			case initByFunc[t] != nil:
				initByFunc[t].Needs = appendUnique(initByFunc[t].Needs, rhs)
			default:
				return diag.Errorf(d.Pos, "%s: depends left-hand side %q is neither an export bundle nor an initializer", path, t)
			}
		}
	}
	return nil
}

func initOrFin(fin bool) string {
	if fin {
		return "finalizer"
	}
	return "initializer"
}

func appendUnique(dst []string, add []string) []string {
	for _, a := range add {
		found := false
		for _, d := range dst {
			if d == a {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, a)
		}
	}
	return dst
}

// bkey identifies a bundle-local symbol.
type bkey struct {
	local string
	sym   string
}

// cidentMap computes, for unit u, the C identifier used for each
// (bundle local, symbol) of its imports and exports — the default is the
// symbol name itself, overridden by rename clauses. The mapping from C
// identifiers back to bundle symbols must be unambiguous; when two
// bundles would claim the same identifier the unit must rename one
// (paper §3.2's wrap/interpose pattern).
func cidentMap(reg *Registry, u *lang.Unit) (map[bkey]string, error) {
	renames := map[bkey]string{}
	valid := map[string]bool{}
	for _, b := range append(append([]lang.Binding{}, u.Imports...), u.Exports...) {
		valid[b.Local] = true
	}
	for _, r := range u.Renames {
		if !valid[r.Bundle] {
			return nil, diag.Errorf(r.Pos, "unit %s: rename of unknown bundle %q", u.Name, r.Bundle)
		}
		renames[bkey{r.Bundle, r.Sym}] = r.To
	}
	out := map[bkey]string{}
	owner := map[string]bkey{}
	addAll := func(bs []lang.Binding) error {
		for _, b := range bs {
			bt, ok := reg.BundleTypes[b.Type]
			if !ok {
				return diag.Errorf(b.Pos, "unit %s: unknown bundle type %q", u.Name, b.Type)
			}
			for _, s := range bt.Syms {
				id := s
				if to, ok := renames[bkey{b.Local, s}]; ok {
					id = to
				}
				if prev, clash := owner[id]; clash {
					return diag.Errorf(b.Pos,
						"unit %s: C identifier %q is claimed by both %s.%s and %s.%s — add a rename",
						u.Name, id, prev.local, prev.sym, b.Local, s)
				}
				owner[id] = bkey{b.Local, s}
				out[bkey{b.Local, s}] = id
			}
		}
		return nil
	}
	if err := addAll(u.Imports); err != nil {
		return nil, err
	}
	if err := addAll(u.Exports); err != nil {
		return nil, err
	}
	// Verify rename targets referenced real bundle symbols.
	for k := range renames {
		if _, ok := out[k]; !ok {
			return nil, diag.Errorf(u.Pos, "unit %s: rename of %s.%s does not match any bundle symbol",
				u.Name, k.local, k.sym)
		}
	}
	return out, nil
}

// resolveSymbols runs after all wires are patched: it builds each
// instance's global rename map (imports -> provider symbols, exports and
// hidden names -> instance-suffixed names) and applies it to the cloned
// ASTs. It also validates that exports are actually defined and that
// referenced-but-unbound symbols are flagged.
func (e *elab) resolveSymbols(prog *Program) error {
	for _, inst := range prog.Instances {
		u := inst.Unit
		cidents, err := cidentMap(e.reg, u)
		if err != nil {
			return err
		}
		suffix := fmt.Sprintf("__k%d", inst.ID)
		mapping := map[string]string{}
		importIdents := map[string]bool{}
		// Imports: cident -> provider's global name.
		for _, imp := range u.Imports {
			w := inst.ImportWires[imp.Local]
			if w == nil || w.Provider == nil {
				return diag.Errorf(imp.Pos, "%s: import %q left unwired", inst.Path, imp.Local)
			}
			bt := e.reg.BundleTypes[imp.Type]
			for _, s := range bt.Syms {
				id := cidents[bkey{imp.Local, s}]
				target, ok := w.Provider.ExportSyms[w.Bundle][s]
				if !ok {
					return diag.Errorf(imp.Pos, "%s: provider %s has no symbol %q in bundle %q",
						inst.Path, w.Provider.Path, s, w.Bundle)
				}
				mapping[id] = target
				importIdents[id] = true
			}
		}
		// Exports: cident -> suffixed global.
		exportIdents := map[string]bool{}
		for _, exp := range u.Exports {
			bt := e.reg.BundleTypes[exp.Type]
			for _, s := range bt.Syms {
				id := cidents[bkey{exp.Local, s}]
				mapping[id] = inst.ExportSyms[exp.Local][s]
				exportIdents[id] = true
			}
		}
		// Collect definitions across the unit's files (C and assembly).
		definedGlobal := map[string]bool{} // non-static defined names
		for _, f := range inst.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *cmini.VarDecl:
					if !d.Extern && !d.Static {
						definedGlobal[d.Name] = true
					}
				case *cmini.FuncDecl:
					if d.Body != nil && !d.Static {
						definedGlobal[d.Name] = true
					}
				}
			}
		}
		for _, o := range inst.asmRaw {
			for _, s := range o.Syms {
				if s.Defined && !s.Local {
					definedGlobal[s.Name] = true
				}
			}
		}
		// Every export identifier must be defined by the unit's code.
		for id := range exportIdents {
			if !definedGlobal[id] {
				return diag.Errorf(u.Pos, "%s: export symbol %q is not defined by files %v",
					inst.Path, id, u.Files)
			}
			if importIdents[id] {
				return diag.Errorf(u.Pos, "%s: identifier %q is both imported and exported — add a rename", inst.Path, id)
			}
		}
		// Hidden names: defined, not exported. They get suffixed so that
		// instances never clash ("defined names that are not exported
		// will be hidden from all other units").
		for name := range definedGlobal {
			if exportIdents[name] {
				continue
			}
			if importIdents[name] {
				return diag.Errorf(u.Pos, "%s: identifier %q is defined locally but also bound to an import", inst.Path, name)
			}
			mapping[name] = name + suffix
		}
		// Per-file statics: suffix with file index as well (statics are
		// file-scoped in C). Each file's renames are the instance's
		// mapping with its statics on top, kept only for the identifiers
		// the file declares or references: those are all RenameGlobals
		// touches in RenamedFile, and all its cache key may depend on.
		for fi, f := range inst.Files {
			statics := map[string]string{}
			var declared []string
			for _, d := range f.Decls {
				var name string
				var static bool
				switch d := d.(type) {
				case *cmini.VarDecl:
					name, static = d.Name, d.Static
				case *cmini.FuncDecl:
					name, static = d.Name, d.Static && d.Body != nil
				default:
					continue
				}
				declared = append(declared, name)
				if static {
					statics[name] = fmt.Sprintf("%s%s_f%d", name, suffix, fi)
				}
			}
			renames := map[string]string{}
			note := func(id string) {
				if to, ok := statics[id]; ok {
					renames[id] = to
				} else if to, ok := mapping[id]; ok {
					renames[id] = to
				}
			}
			for _, name := range declared {
				note(name)
			}
			// Unbound references: anything used that is not defined by
			// the unit (globally or as a file static), not bound to an
			// import, and not an ambient hardware symbol. An extern
			// declaration alone does not resolve a reference — that is
			// precisely the "spurious notch" the bag-of-objects model
			// cannot diagnose and Knit can.
			for ref := range cmini.GlobalRefs(f) {
				note(ref)
				if renames[ref] != "" || definedGlobal[ref] {
					continue
				}
				if strings.HasPrefix(ref, AmbientPrefix) {
					continue
				}
				return diag.Errorf(u.Pos,
					"%s: file %s uses symbol %q which is neither defined by the unit nor bound to an import",
					inst.Path, f.Name, ref)
			}
			inst.Origins[fi].Renames = renames
		}
		// Assembly files: the same renaming, applied at the object level
		// (the objcopy path). Locals get a per-file suffix like C statics.
		for fi, raw := range inst.asmRaw {
			o := raw.Clone()
			objMap := map[string]string{}
			for k, v := range mapping {
				objMap[k] = v
			}
			for _, s := range o.Syms {
				if s.Local {
					objMap[s.Name] = fmt.Sprintf("%s%s_s%d", s.Name, suffix, fi)
				}
			}
			for _, s := range o.Syms {
				if s.Defined || objMap[s.Name] != "" ||
					strings.HasPrefix(s.Name, AmbientPrefix) {
					continue
				}
				return diag.Errorf(u.Pos,
					"%s: assembly file %s uses symbol %q which is neither defined by the unit nor bound to an import",
					inst.Path, o.Name, s.Name)
			}
			obj.Rename(o, objMap)
			inst.Objects = append(inst.Objects, o)
		}
		// Record initializer global names and validate they are defined.
		for _, ini := range inst.Inits {
			global, ok := mapping[ini.Func]
			if !ok || !definedGlobal[ini.Func] {
				return diag.Errorf(u.Pos, "%s: %s %q is not defined by the unit's files",
					inst.Path, initOrFin(ini.Finalizer), ini.Func)
			}
			ini.GlobalName = global
		}
	}
	return nil
}

// SortedInstances returns instances ordered by ID (deterministic).
func (p *Program) SortedInstances() []*Instance {
	out := append([]*Instance(nil), p.Instances...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
