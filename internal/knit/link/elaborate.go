package link

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
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
	srcs    []*cSource // Files with their symbol facts
	// Objects holds the unit's assembly-implemented files (paper: "Knit
	// can actually work with C, assembly, and object code"), already
	// instance-renamed at the object level — the objcopy path. Assembly
	// units are never flattened; they link as objects.
	Objects     []*obj.File
	asmRaw      []*obj.File // assembled but not yet renamed; the front end's, so only read
	ImportWires map[string]*Wire
	// ExportSyms maps export local -> bundle symbol -> program-unique
	// global name.
	ExportSyms    map[string]map[string]string
	exportGlobals [][]string // ExportSyms per export binding, in its bundle type's symbol order
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
	units   map[*lang.Unit]*unitInfo
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
		childPath := path + "/" + line.Unit + "#" + strconv.Itoa(li)
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
		ImportWires: make(map[string]*Wire, len(u.Imports)),
		ExportSyms:  make(map[string]map[string]string, len(u.Exports)),
		ExportNeeds: map[string][]string{},
	}
	e.nextID++
	for _, imp := range u.Imports {
		inst.ImportWires[imp.Local] = env[imp.Local]
	}
	// Export symbol global names.
	info, err := e.unitInfo(u)
	if err != nil {
		return nil, err
	}
	suffix := instanceSuffix(inst.ID)
	inst.exportGlobals = make([][]string, len(u.Exports))
	for i, exp := range u.Exports {
		ids := info.exports[i]
		globals := make([]string, len(ids))
		syms := make(map[string]string, len(ids))
		for j, s := range e.reg.BundleTypes[exp.Type].Syms {
			globals[j] = ids[j] + suffix
			syms[s] = globals[j]
		}
		inst.exportGlobals[i] = globals
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
		text, ok := e.sources[fname]
		if !ok {
			return nil, diag.Errorf(u.Pos, "%s: source file %q not provided", path, fname)
		}
		if strings.HasSuffix(fname, ".s") {
			o, err := e.fe.asm.get(fname, text, asm.Parse)
			if err != nil {
				return nil, fmt.Errorf("unit %s: %w", u.Name, err)
			}
			inst.asmRaw = append(inst.asmRaw, o)
			continue
		}
		src, err := e.fe.c.get(fname, text, parseC)
		if err != nil {
			return nil, fmt.Errorf("unit %s: %w", u.Name, err)
		}
		inst.Files = append(inst.Files, src.tree)
		inst.srcs = append(inst.srcs, src)
		inst.Origins = append(inst.Origins, FileOrigin{Text: text})
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
	initOf := func(fn string) *Init {
		for _, ini := range inst.Inits {
			if ini.Func == fn {
				return ini
			}
		}
		return nil
	}
	for _, d := range u.Inits {
		if !hasLocal(u.Exports, d.Bundle) {
			return diag.Errorf(d.Pos, "%s: %s %q is for unknown export bundle %q",
				path, initOrFin(d.Finalizer), d.Func, d.Bundle)
		}
		if initOf(d.Func) != nil {
			return diag.Errorf(d.Pos, "%s: duplicate initializer/finalizer %q", path, d.Func)
		}
		inst.Inits = append(inst.Inits, &Init{Func: d.Func, Bundle: d.Bundle, Finalizer: d.Finalizer})
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
			if !hasLocal(u.Imports, t) {
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
			if hasLocal(u.Exports, t) {
				inst.ExportNeeds[t] = appendUnique(inst.ExportNeeds[t], rhs)
			} else if ini := initOf(t); ini != nil {
				ini.Needs = appendUnique(ini.Needs, rhs)
			} else {
				return diag.Errorf(d.Pos, "%s: depends left-hand side %q is neither an export bundle nor an initializer", path, t)
			}
		}
	}
	return nil
}

// hasLocal reports whether one of bs is named local.
func hasLocal(bs []lang.Binding, local string) bool {
	for _, b := range bs {
		if b.Local == local {
			return true
		}
	}
	return false
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

// unitInfo is what an elaboration derives from one unit, once however
// many instances the unit has.
type unitInfo struct {
	// imports and exports hold the C identifier of each symbol of each
	// import and export binding, in its bundle type's symbol order.
	imports, exports [][]string
	// The rest is filled in when the unit's first instance resolves its
	// symbols: the checks that depend on the unit alone pass there.
	resolved bool
	// bound maps the C identifier of every import and export symbol to
	// the binding and symbol it names.
	bound map[string]renameSlot
	// defined holds the names the unit's files define for each other:
	// C definitions that are not static, and assembly globals.
	defined map[string]bool
	// plans lists, per C file, the names the file declares or references
	// that every instance renames, and how.
	plans [][]renameSlot
}

// renameKind is how an instance renames one name of its C files.
type renameKind uint8

const (
	renameStatic renameKind = iota // a file static: name, instance suffix, file index
	renameImport                   // an import symbol's identifier: its provider's global name
	renameExport                   // an export symbol's identifier: the instance's global name
	renameHidden                   // defined, not exported: name and instance suffix
)

// renameSlot is one name an instance renames; bundle and sym index the
// binding and its symbol for renameImport and renameExport.
type renameSlot struct {
	name        string
	kind        renameKind
	bundle, sym int
}

// instanceSuffix is what makes instance id's hidden and exported names
// program-unique.
func instanceSuffix(id int) string { return "__k" + strconv.Itoa(id) }

// unitInfo returns u's unitInfo, computing its C identifier map on the
// first request: for each (bundle local, symbol) of its imports and
// exports, the C identifier its files use — the symbol name itself,
// overridden by rename clauses. The mapping from C identifiers back to
// bundle symbols must be unambiguous; when two bundles would claim the
// same identifier the unit must rename one (paper §3.2's wrap/interpose
// pattern).
func (e *elab) unitInfo(u *lang.Unit) (*unitInfo, error) {
	if info := e.units[u]; info != nil {
		return info, nil
	}
	for _, r := range u.Renames {
		if !hasLocal(u.Imports, r.Bundle) && !hasLocal(u.Exports, r.Bundle) {
			return nil, diag.Errorf(r.Pos, "unit %s: rename of unknown bundle %q", u.Name, r.Bundle)
		}
	}
	matched := make([]bool, len(u.Renames))
	n := 0
	for _, bs := range [][]lang.Binding{u.Imports, u.Exports} {
		for _, b := range bs {
			if bt := e.reg.BundleTypes[b.Type]; bt != nil {
				n += len(bt.Syms)
			}
		}
	}
	owner := make(map[string]bkey, n)
	idents := func(bs []lang.Binding) ([][]string, error) {
		out := make([][]string, len(bs))
		for i, b := range bs {
			bt, ok := e.reg.BundleTypes[b.Type]
			if !ok {
				return nil, diag.Errorf(b.Pos, "unit %s: unknown bundle type %q", u.Name, b.Type)
			}
			ids := make([]string, len(bt.Syms))
			for j, s := range bt.Syms {
				id := s
				for k, r := range u.Renames {
					if r.Bundle == b.Local && r.Sym == s {
						id = r.To // the last rename of a symbol wins
						matched[k] = true
					}
				}
				if prev, clash := owner[id]; clash {
					return nil, diag.Errorf(b.Pos,
						"unit %s: C identifier %q is claimed by both %s.%s and %s.%s — add a rename",
						u.Name, id, prev.local, prev.sym, b.Local, s)
				}
				owner[id] = bkey{b.Local, s}
				ids[j] = id
			}
			out[i] = ids
		}
		return out, nil
	}
	info := &unitInfo{}
	var err error
	if info.imports, err = idents(u.Imports); err != nil {
		return nil, err
	}
	if info.exports, err = idents(u.Exports); err != nil {
		return nil, err
	}
	// Every rename must name a real bundle symbol.
	for k, r := range u.Renames {
		if !matched[k] {
			return nil, diag.Errorf(r.Pos, "unit %s: rename of %s.%s does not match any bundle symbol",
				u.Name, r.Bundle, r.Sym)
		}
	}
	if e.units == nil {
		e.units = map[*lang.Unit]*unitInfo{}
	}
	e.units[u] = info
	return info, nil
}

// resolveSymbols runs after all wires are patched: it works out each
// instance's renames — imports to their providers' symbols, exports and
// hidden names to instance-suffixed names — for its C files, and
// applies them to clones of its assembly objects. It also validates
// that exports are actually defined and flags referenced-but-unbound
// symbols, in source and declaration order.
func (e *elab) resolveSymbols(prog *Program) error {
	for _, inst := range prog.Instances {
		if err := e.resolveInstance(inst); err != nil {
			return err
		}
	}
	return nil
}

func (e *elab) resolveInstance(inst *Instance) error {
	u := inst.Unit
	info := e.units[u]
	// Imports: each symbol's identifier becomes its provider's global name.
	targets := make([][]string, len(u.Imports))
	for i, imp := range u.Imports {
		w := inst.ImportWires[imp.Local]
		if w == nil || w.Provider == nil {
			return diag.Errorf(imp.Pos, "%s: import %q left unwired", inst.Path, imp.Local)
		}
		syms := e.reg.BundleTypes[imp.Type].Syms
		targets[i] = make([]string, len(syms))
		for j, s := range syms {
			target, ok := w.Provider.ExportSyms[w.Bundle][s]
			if !ok {
				return diag.Errorf(imp.Pos, "%s: provider %s has no symbol %q in bundle %q",
					inst.Path, w.Provider.Path, s, w.Bundle)
			}
			targets[i][j] = target
		}
	}
	if !info.resolved {
		if err := e.resolveUnit(inst, info); err != nil {
			return err
		}
	}
	suffix := instanceSuffix(inst.ID)
	global := func(sl renameSlot) string {
		switch sl.kind {
		case renameImport:
			return targets[sl.bundle][sl.sym]
		case renameExport:
			return inst.exportGlobals[sl.bundle][sl.sym]
		}
		return sl.name + suffix
	}
	// Each file's renames, kept only for the identifiers the file
	// declares or references: those are all RenameGlobals touches in
	// RenamedFile, and all its cache key may depend on. Statics are
	// file-scoped in C, so they carry the file index as well.
	for fi, plan := range info.plans {
		renames := make(map[string]string, len(plan))
		for _, sl := range plan {
			if sl.kind == renameStatic {
				renames[sl.name] = sl.name + suffix + "_f" + strconv.Itoa(fi)
			} else {
				renames[sl.name] = global(sl)
			}
		}
		inst.Origins[fi].Renames = renames
	}
	// Assembly files: the same renaming, applied at the object level
	// (the objcopy path). Locals get a per-file suffix like C statics.
	for fi, raw := range inst.asmRaw {
		o := raw.Clone()
		objMap := map[string]string{}
		for id, sl := range info.bound {
			objMap[id] = global(sl)
		}
		for name := range info.defined {
			if _, ok := info.bound[name]; !ok {
				objMap[name] = name + suffix
			}
		}
		for _, s := range o.Syms {
			if s.Local {
				objMap[s.Name] = s.Name + suffix + "_s" + strconv.Itoa(fi)
			}
		}
		obj.Rename(o, objMap)
		inst.Objects = append(inst.Objects, o)
	}
	// Initializers and finalizers: defined by the unit (resolveUnit
	// checked), so exported or hidden.
	for _, ini := range inst.Inits {
		if sl, ok := info.bound[ini.Func]; ok {
			ini.GlobalName = global(sl)
		} else {
			ini.GlobalName = ini.Func + suffix
		}
	}
	return nil
}

// resolveUnit runs, at inst, the first instance of its unit to resolve,
// the symbol checks that depend on the unit alone, and plans how every
// instance renames each of the unit's C files.
func (e *elab) resolveUnit(inst *Instance, info *unitInfo) error {
	u := inst.Unit
	n := 0
	for _, ids := range info.imports {
		n += len(ids)
	}
	for _, ids := range info.exports {
		n += len(ids)
	}
	bound := make(map[string]renameSlot, n)
	for i, ids := range info.imports {
		for j, id := range ids {
			bound[id] = renameSlot{id, renameImport, i, j}
		}
	}
	for i, ids := range info.exports {
		for j, id := range ids {
			bound[id] = renameSlot{id, renameExport, i, j}
		}
	}
	defined := make(map[string]bool, n)
	for _, src := range inst.srcs {
		for _, d := range src.decls {
			if d.global {
				defined[d.name] = true
			}
		}
	}
	for _, o := range inst.asmRaw {
		for _, s := range o.Syms {
			if s.Defined && !s.Local {
				defined[s.Name] = true
			}
		}
	}
	// Every export identifier must be defined by the unit's code; the
	// error is at the rename clause that chose the identifier, or else
	// at the export.
	for i, exp := range u.Exports {
		for j, id := range info.exports[i] {
			if defined[id] {
				continue
			}
			pos := exp.Pos
			for _, r := range u.Renames {
				if r.Bundle == exp.Local && r.Sym == e.reg.BundleTypes[exp.Type].Syms[j] {
					pos = r.Pos
				}
			}
			return diag.Errorf(pos, "%s: export symbol %q is not defined by files %v",
				inst.Path, id, u.Files)
		}
	}
	// Hidden names: defined, not exported. They get suffixed so that
	// instances never clash ("defined names that are not exported
	// will be hidden from all other units"); an import's cannot be one.
	for _, src := range inst.srcs {
		for _, d := range src.decls {
			if sl, ok := bound[d.name]; d.global && ok && sl.kind == renameImport {
				return diag.Errorf(src.tree.Decls[d.index].DeclPos(),
					"%s: identifier %q is defined locally but also bound to an import", inst.Path, d.name)
			}
		}
	}
	for _, o := range inst.asmRaw {
		for _, s := range o.Syms {
			if sl, ok := bound[s.Name]; s.Defined && !s.Local && ok && sl.kind == renameImport {
				return diag.Errorf(u.Pos, "%s: identifier %q is defined locally but also bound to an import",
					inst.Path, s.Name)
			}
		}
	}
	// Each file's plan: its statics, and the names it shares with the
	// unit. Unbound references are anything used that is not defined by
	// the unit (globally or as a file static), not bound to an import,
	// and not an ambient hardware symbol. An extern declaration alone
	// does not resolve a reference — that is precisely the "spurious
	// notch" the bag-of-objects model cannot diagnose and Knit can.
	info.plans = make([][]renameSlot, len(inst.srcs))
	for fi, src := range inst.srcs {
		slot := func(name string) (renameSlot, bool) {
			sl, ok := bound[name]
			switch {
			case slices.Contains(src.statics, name):
				return renameSlot{name: name, kind: renameStatic}, true
			case !ok && defined[name]:
				return renameSlot{name: name, kind: renameHidden}, true
			}
			return sl, ok
		}
		// The plan names each declared or referenced name once.
		plan := make([]renameSlot, 0, len(src.decls)+len(src.refs))
		for _, d := range src.decls {
			if sl, ok := slot(d.name); ok && !d.again {
				plan = append(plan, sl)
			}
		}
		for i := range src.refs {
			ref := &src.refs[i]
			sl, ok := slot(ref.name)
			switch {
			case ok && !ref.declared:
				plan = append(plan, sl)
			case !ok && !strings.HasPrefix(ref.name, AmbientPrefix):
				return diag.Errorf(ref.pos(src),
					"%s: file %s uses symbol %q which is neither defined by the unit nor bound to an import",
					inst.Path, src.tree.Name, ref.name)
			}
		}
		info.plans[fi] = plan
	}
	for _, o := range inst.asmRaw {
		for _, s := range o.Syms {
			if _, ok := bound[s.Name]; s.Defined || s.Local || ok || defined[s.Name] ||
				strings.HasPrefix(s.Name, AmbientPrefix) {
				continue
			}
			return diag.Errorf(u.Pos,
				"%s: assembly file %s uses symbol %q which is neither defined by the unit nor bound to an import",
				inst.Path, o.Name, s.Name)
		}
	}
	// Initializers and finalizers must be defined by the unit's files.
	for k, ini := range inst.Inits {
		if !defined[ini.Func] {
			return diag.Errorf(u.Inits[k].Pos, "%s: %s %q is not defined by the unit's files",
				inst.Path, initOrFin(ini.Finalizer), ini.Func)
		}
	}
	info.bound, info.defined, info.resolved = bound, defined, true
	return nil
}

// SortedInstances returns instances ordered by ID (deterministic).
func (p *Program) SortedInstances() []*Instance {
	out := append([]*Instance(nil), p.Instances...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
