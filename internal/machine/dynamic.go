package machine

import (
	"fmt"
	"sort"

	"knit/internal/obj"
)

// This file implements run-time loading and unloading of object code in
// a running machine — the machine half of Knit's dynamic linking
// extension (paper §8), grown into a full module lifecycle. A loaded
// module's data is appended to the live memory image, its functions get
// fresh text addresses, and its references resolve against the base
// image plus previously loaded modules. Each load is recorded as a
// module, so UnloadDynamic can later reclaim exactly that module's
// text, data, and symbol-table entries — after verifying that no other
// live module still references them. Dynamic state is per-machine:
// Reset drops all loaded modules along with the rest of the run-time
// state.

// dynState holds a machine's dynamically loaded symbols.
type dynState struct {
	funcs      map[string]*obj.Func
	funcAddr   map[string]int64
	funcByAddr map[int64]*obj.Func
	globalAddr map[string]int64
	textOff    map[string]int64
	index      map[string]int    // function -> dense index (CallInfo.Index)
	owner      map[string]string // symbol -> owning unit instance (attribution)
	textSize   int64
	modules    []*dynModule // live modules, in load order
}

// dynModule records what one LoadDynamic committed, so it can be
// reclaimed symbol-for-symbol and byte-for-byte.
type dynModule struct {
	name     string
	owner    string   // unit-instance attribution, may be ""
	funcs    []string // defined function symbols
	globals  []string // defined data symbols
	refs     []string // external symbols this module's code/data references
	dataBase int64    // [dataBase, dataEnd) in m.Mem
	dataEnd  int64
	textBase int64 // [textBase, textEnd) in text offsets
	textEnd  int64
}

func newDynState() *dynState {
	return &dynState{
		funcs:      map[string]*obj.Func{},
		funcAddr:   map[string]int64{},
		funcByAddr: map[int64]*obj.Func{},
		globalAddr: map[string]int64{},
		textOff:    map[string]int64{},
		index:      map[string]int{},
		owner:      map[string]string{},
	}
}

// clone deep-copies the symbol tables and module records; *obj.Func
// values are immutable after load and are shared.
func (d *dynState) clone() *dynState {
	c := newDynState()
	for k, v := range d.funcs {
		c.funcs[k] = v
	}
	for k, v := range d.funcAddr {
		c.funcAddr[k] = v
	}
	for k, v := range d.funcByAddr {
		c.funcByAddr[k] = v
	}
	for k, v := range d.globalAddr {
		c.globalAddr[k] = v
	}
	for k, v := range d.textOff {
		c.textOff[k] = v
	}
	for k, v := range d.index {
		c.index[k] = v
	}
	for k, v := range d.owner {
		c.owner[k] = v
	}
	c.textSize = d.textSize
	c.modules = append([]*dynModule(nil), d.modules...)
	return c
}

// renumber draws fresh indices for every live function from *next, in
// load order: what a snapshot taken on another machine needs, since its
// indices were drawn from that machine's counter.
func (d *dynState) renumber(next *int) {
	for _, mod := range d.modules {
		for _, s := range mod.funcs {
			d.index[s] = *next
			*next++
		}
	}
}

func (d *dynState) module(name string) *dynModule {
	for _, mod := range d.modules {
		if mod.name == name {
			return mod
		}
	}
	return nil
}

// LoadDynamic links an object file into the running machine under the
// module name o.Name with no unit attribution. See LoadDynamicAs.
func (m *M) LoadDynamic(o *obj.File) error {
	return m.LoadDynamicAs(o.Name, "", o)
}

// LoadDynamicAs links an object file into the running machine as a
// named module. Every data symbol referenced by the module must resolve
// (image, earlier modules, or the module itself); function references
// may also be satisfied by builtins at call time, like static calls.
// owner, when non-empty, attributes the module's symbols to a unit
// instance for trap reporting. Returns an error and loads nothing on
// failure; a successful load can be reversed by UnloadDynamic(name).
func (m *M) LoadDynamicAs(name, owner string, o *obj.File) error {
	if name == "" {
		return &LoadError{Msg: "dynamic: module needs a name"}
	}
	if m.dyn == nil {
		m.dyn = newDynState()
	}
	if m.dyn.module(name) != nil {
		return &LoadError{Msg: fmt.Sprintf("dynamic: module %q already loaded", name)}
	}
	// Collisions with existing definitions are linker errors.
	for _, s := range o.Syms {
		if !s.Defined || s.Local {
			continue
		}
		if m.resolvable(s.Name) {
			return &LoadError{Msg: fmt.Sprintf("dynamic: symbol %q already defined", s.Name)}
		}
	}

	// Stage placements without committing.
	dataBase := int64(len(m.Mem))
	addr := dataBase
	newGlobals := map[string]int64{}
	var order []string
	for name := range o.Datas {
		order = append(order, name)
	}
	sortStrings(order)
	for _, name := range order {
		newGlobals[name] = addr
		addr += int64(o.Datas[name].Size)
	}
	strAddr := make([]int64, len(o.Strings))
	for i, s := range o.Strings {
		strAddr[i] = addr
		addr += int64(len(s)) + 1
	}
	textStart := m.Img.TextSize + m.dyn.textSize
	newFuncAddr := map[string]int64{}
	newFuncs := map[string]*obj.Func{}
	newTextOff := map[string]int64{}
	var fnames []string
	for name := range o.Funcs {
		fnames = append(fnames, name)
	}
	sortStrings(fnames)
	text := textStart
	for _, name := range fnames {
		fn := o.Funcs[name].Clone()
		// Dynamic string references become absolute addresses now.
		for i := range fn.Code {
			if fn.Code[i].Op == obj.OpAddrString {
				idx := int(fn.Code[i].Imm)
				if idx < 0 || idx >= len(strAddr) {
					return &LoadError{Msg: fmt.Sprintf("dynamic: func %s: bad string index %d", name, idx)}
				}
				fn.Code[i] = obj.Instr{Op: obj.OpConst, Dst: fn.Code[i].Dst,
					Imm: strAddr[idx], A: obj.NoReg, B: obj.NoReg}
			}
		}
		newFuncs[name] = fn
		newFuncAddr[name] = textBase + text
		newTextOff[name] = text
		text += int64(len(fn.Code)*m.Costs.InstrBytes + m.Costs.FuncPad)
	}

	resolve := func(sym string) (int64, bool) {
		if a, ok := newGlobals[sym]; ok {
			return a, true
		}
		if a, ok := newFuncAddr[sym]; ok {
			return a, true
		}
		return m.resolveAddr(sym)
	}
	// Validate address references before committing.
	for name, fn := range newFuncs {
		for i := range fn.Code {
			if fn.Code[i].Op == obj.OpAddrGlobal {
				if _, ok := resolve(fn.Code[i].Sym); !ok {
					return &LoadError{Msg: fmt.Sprintf(
						"dynamic: func %s: address of unresolved symbol %q", name, fn.Code[i].Sym)}
				}
			}
		}
	}
	// Build the appended memory.
	mem := make([]int64, addr-dataBase)
	for i, s := range o.Strings {
		base := strAddr[i] - dataBase
		for j := 0; j < len(s); j++ {
			mem[base+int64(j)] = int64(s[j])
		}
	}
	for _, name := range order {
		d := o.Datas[name]
		base := newGlobals[name] - dataBase
		for _, init := range d.Init {
			switch init.Kind {
			case obj.InitConst:
				mem[base+int64(init.Offset)] = init.Val
			case obj.InitString:
				if init.Index < 0 || init.Index >= len(strAddr) {
					return &LoadError{Msg: fmt.Sprintf("dynamic: data %s: bad string index %d", name, init.Index)}
				}
				mem[base+int64(init.Offset)] = strAddr[init.Index]
			case obj.InitSym:
				a, ok := resolve(init.Sym)
				if !ok {
					return &LoadError{Msg: fmt.Sprintf("dynamic: data %s: unresolved symbol %q", name, init.Sym)}
				}
				mem[base+int64(init.Offset)] = a
			}
		}
	}

	// Commit.
	mod := &dynModule{
		name:     name,
		owner:    owner,
		dataBase: dataBase,
		dataEnd:  addr,
		textBase: textStart,
		textEnd:  text,
	}
	m.Mem = append(m.Mem, mem...)
	for gname, a := range newGlobals {
		m.dyn.globalAddr[gname] = a
		mod.globals = append(mod.globals, gname)
		if owner != "" {
			m.dyn.owner[gname] = owner
		}
	}
	for _, fname := range fnames { // text order: indices drawn in it
		fn := newFuncs[fname]
		m.dyn.funcs[fname] = fn
		a := newFuncAddr[fname]
		m.dyn.funcAddr[fname] = a
		m.dyn.funcByAddr[a] = fn
		m.dyn.textOff[fname] = newTextOff[fname]
		m.dyn.index[fname] = m.nextIndex
		m.nextIndex++
		mod.funcs = append(mod.funcs, fname)
		if owner != "" {
			m.dyn.owner[fname] = owner
		}
	}
	mod.refs = moduleRefs(o, newGlobals, newFuncs)
	sortStrings(mod.globals)
	m.dyn.textSize = text - m.Img.TextSize
	m.dyn.modules = append(m.dyn.modules, mod)
	// New definitions can satisfy call sites previously resolved to a
	// builtin or to undefined; drop the compiled dispatch caches.
	m.dispVersion++
	if m.RewireHook != nil {
		m.RewireHook("load", name, "")
	}
	return nil
}

// moduleRefs collects the external symbols a module's code and data
// reference — the names that must stay resolvable for the module to
// keep running, and therefore the names that pin other modules in
// memory until this one is unloaded.
func moduleRefs(o *obj.File, globals map[string]int64, funcs map[string]*obj.Func) []string {
	self := func(sym string) bool {
		if _, ok := globals[sym]; ok {
			return true
		}
		_, ok := funcs[sym]
		return ok
	}
	seen := map[string]bool{}
	add := func(sym string) {
		if sym != "" && !self(sym) && !seen[sym] {
			seen[sym] = true
		}
	}
	for _, fn := range funcs {
		for i := range fn.Code {
			switch fn.Code[i].Op {
			case obj.OpCall, obj.OpAddrGlobal:
				add(fn.Code[i].Sym)
			}
		}
	}
	for _, d := range o.Datas {
		for _, init := range d.Init {
			if init.Kind == obj.InitSym {
				add(init.Sym)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for sym := range seen {
		out = append(out, sym)
	}
	sortStrings(out)
	return out
}

// UnloadDynamic reverses a LoadDynamicAs: it removes the named module's
// functions and globals from the symbol tables and reclaims its memory.
// The unload is refused — and nothing changes — if any other live
// module's code or data references one of the module's symbols, the
// same puzzle-piece discipline the loader enforces, run in reverse.
//
// Reclamation detail: the topmost module's data and text are truncated
// outright; a module unloaded from the middle leaves its data region
// zeroed (addresses are never reused) and its text range unreclaimed
// until the modules above it go too.
func (m *M) UnloadDynamic(name string) error {
	if m.dyn == nil || m.dyn.module(name) == nil {
		return &LoadError{Msg: fmt.Sprintf("dynamic: no loaded module %q", name)}
	}
	mod := m.dyn.module(name)
	owned := map[string]bool{}
	for _, s := range mod.funcs {
		owned[s] = true
	}
	for _, s := range mod.globals {
		owned[s] = true
	}
	for _, other := range m.dyn.modules {
		if other == mod {
			continue
		}
		for _, ref := range other.refs {
			if owned[ref] {
				return &LoadError{Msg: fmt.Sprintf(
					"dynamic: cannot unload module %q: live module %q still references its symbol %q (unload %q first)",
					name, other.name, ref, other.name)}
			}
		}
	}
	// Interposition redirects aimed *at* this module pin it too: calls
	// are being routed into its code right now. (Redirect sources may
	// vanish freely — a key with no definition is never dispatched.)
	// The least pinning source is named, so the error is deterministic.
	pin := ""
	for from, to := range m.redirect {
		if owned[to] && (pin == "" || from < pin) {
			pin = from
		}
	}
	if pin != "" {
		return &LoadError{Msg: fmt.Sprintf(
			"dynamic: cannot unload module %q: calls to %q are interposed onto its symbol %q",
			name, pin, m.redirect[pin])}
	}

	// Reclaim symbol-table entries.
	for _, s := range mod.funcs {
		if a, ok := m.dyn.funcAddr[s]; ok {
			delete(m.dyn.funcByAddr, a)
		}
		delete(m.dyn.funcs, s)
		delete(m.dyn.funcAddr, s)
		delete(m.dyn.textOff, s)
		delete(m.dyn.index, s)
		delete(m.dyn.owner, s)
	}
	for _, s := range mod.globals {
		delete(m.dyn.globalAddr, s)
		delete(m.dyn.owner, s)
	}
	// Reclaim memory and text. Memory can shrink only down to the
	// highest region end any *other* live module still claims — a module
	// loaded later than this one may hold an (empty) region right at the
	// current end of memory, and its base must stay in bounds.
	memEnd := mod.dataBase
	textEnd := mod.textBase
	for _, other := range m.dyn.modules {
		if other == mod {
			continue
		}
		if other.dataEnd > memEnd {
			memEnd = other.dataEnd
		}
		if other.textEnd > textEnd {
			textEnd = other.textEnd
		}
	}
	if memEnd < int64(len(m.Mem)) {
		m.Mem = m.Mem[:memEnd]
	}
	for i := mod.dataBase; i < mod.dataEnd && i < int64(len(m.Mem)); i++ {
		m.Mem[i] = 0
	}
	if end := m.Img.TextSize + m.dyn.textSize; textEnd < end {
		m.dyn.textSize = textEnd - m.Img.TextSize
	}
	// Drop the module record.
	live := m.dyn.modules[:0]
	for _, other := range m.dyn.modules {
		if other != mod {
			live = append(live, other)
		}
	}
	m.dyn.modules = live
	if len(m.dyn.modules) == 0 {
		m.dyn = nil
	}
	// Compiled forms of the unloaded functions must go (their dispatch
	// slots and baked addresses are dead); dropping the whole per-machine
	// cache is simpler and unload is rare. Live modules recompile lazily
	// to identical code — their symbol addresses never move.
	m.dynCompiled = nil
	m.dispVersion++
	if m.RewireHook != nil {
		m.RewireHook("unload", name, "")
	}
	return nil
}

// DynModules returns the names of the live dynamic modules, in load
// order.
func (m *M) DynModules() []string {
	if m.dyn == nil {
		return nil
	}
	out := make([]string, len(m.dyn.modules))
	for i, mod := range m.dyn.modules {
		out[i] = mod.name
	}
	return out
}

// CheckDynInvariants validates the machine's dynamic symbol tables
// against the live module records: every table entry must belong to
// exactly one live module (no dangling symbols after an unload), the
// address maps must agree with each other, and module memory/text
// regions must be disjoint and in bounds. Test harnesses run it after
// every load/unload step; it is cheap but not free.
func (m *M) CheckDynInvariants() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("machine: dynamic invariant violated: "+format, args...)
	}
	// Every interposition target must be a defined function: a redirect
	// onto a reclaimed module would turn calls into undefined-call
	// traps, which is exactly the residue a failed swap must not leave
	// behind. Checked before the dynamic tables because redirects can
	// outlive the last module (static-to-static interposition).
	for from, to := range m.redirect {
		if _, ok := m.funcBySym(to); !ok {
			return fail("redirect %q -> %q targets an undefined function", from, to)
		}
	}
	if m.dyn == nil {
		return nil
	}
	d := m.dyn
	ownedFunc := map[string]string{}
	ownedGlobal := map[string]string{}
	for _, mod := range d.modules {
		for _, s := range mod.funcs {
			if prev, dup := ownedFunc[s]; dup {
				return fail("func %q owned by both %q and %q", s, prev, mod.name)
			}
			ownedFunc[s] = mod.name
		}
		for _, s := range mod.globals {
			if prev, dup := ownedGlobal[s]; dup {
				return fail("global %q owned by both %q and %q", s, prev, mod.name)
			}
			ownedGlobal[s] = mod.name
		}
		if mod.dataBase < m.stackLimit || mod.dataEnd > int64(len(m.Mem)) || mod.dataBase > mod.dataEnd {
			return fail("module %q data region [%d,%d) out of bounds (mem %d)",
				mod.name, mod.dataBase, mod.dataEnd, len(m.Mem))
		}
		if mod.textBase < m.Img.TextSize || mod.textEnd > m.Img.TextSize+d.textSize || mod.textBase > mod.textEnd {
			return fail("module %q text region [%d,%d) out of bounds", mod.name, mod.textBase, mod.textEnd)
		}
	}
	// Regions of distinct modules must not overlap.
	mods := append([]*dynModule(nil), d.modules...)
	sort.Slice(mods, func(i, j int) bool { return mods[i].dataBase < mods[j].dataBase })
	for i := 1; i < len(mods); i++ {
		if mods[i].dataBase < mods[i-1].dataEnd {
			return fail("modules %q and %q overlap in data", mods[i-1].name, mods[i].name)
		}
	}
	sort.Slice(mods, func(i, j int) bool { return mods[i].textBase < mods[j].textBase })
	for i := 1; i < len(mods); i++ {
		if mods[i].textBase < mods[i-1].textEnd {
			return fail("modules %q and %q overlap in text", mods[i-1].name, mods[i].name)
		}
	}
	// Every symbol-table entry must belong to a live module, and vice
	// versa — a dangling entry is exactly what an unload bug leaves.
	for s := range d.funcs {
		if _, ok := ownedFunc[s]; !ok {
			return fail("dangling func table entry %q (no live module owns it)", s)
		}
	}
	for s := range d.globalAddr {
		if _, ok := ownedGlobal[s]; !ok {
			return fail("dangling global table entry %q (no live module owns it)", s)
		}
	}
	indexOf := map[int]string{}
	for s, modName := range ownedFunc {
		i, ok := d.index[s]
		if !ok {
			return fail("func %q has no index", s)
		}
		if i < len(m.Img.funcs) || i >= m.nextIndex {
			return fail("func %q has index %d outside [%d,%d)", s, i, len(m.Img.funcs), m.nextIndex)
		}
		if other, dup := indexOf[i]; dup {
			return fail("funcs %q and %q share index %d", other, s, i)
		}
		indexOf[i] = s
		fn, ok := d.funcs[s]
		if !ok {
			return fail("module %q func %q missing from func table", modName, s)
		}
		a, ok := d.funcAddr[s]
		if !ok {
			return fail("func %q has no address", s)
		}
		if got, ok := d.funcByAddr[a]; !ok || got != fn {
			return fail("funcByAddr[%#x] does not map back to %q", a, s)
		}
		if _, ok := d.textOff[s]; !ok {
			return fail("func %q has no text offset", s)
		}
		if _, shadow := m.Img.FuncAddr[s]; shadow {
			return fail("dynamic func %q shadows an image symbol", s)
		}
	}
	for s := range ownedGlobal {
		if _, ok := d.globalAddr[s]; !ok {
			return fail("global %q has no address", s)
		}
		if _, shadow := m.Img.GlobalAddr[s]; shadow {
			return fail("dynamic global %q shadows an image symbol", s)
		}
	}
	if len(d.funcAddr) != len(d.funcs) || len(d.funcByAddr) != len(d.funcs) ||
		len(d.textOff) != len(d.funcs) || len(d.index) != len(d.funcs) {
		return fail("func table sizes disagree: funcs=%d addr=%d byAddr=%d textOff=%d index=%d",
			len(d.funcs), len(d.funcAddr), len(d.funcByAddr), len(d.textOff), len(d.index))
	}
	// Attribution entries may only name symbols of live modules.
	for s := range d.owner {
		if _, okF := ownedFunc[s]; !okF {
			if _, okG := ownedGlobal[s]; !okG {
				return fail("dangling owner entry %q", s)
			}
		}
	}
	return nil
}

// resolvable reports whether a symbol already has a definition visible
// to this machine.
func (m *M) resolvable(sym string) bool {
	if _, ok := m.Img.GlobalAddr[sym]; ok {
		return true
	}
	if _, ok := m.Img.FuncAddr[sym]; ok {
		return true
	}
	if m.dyn == nil {
		return false
	}
	if _, ok := m.dyn.globalAddr[sym]; ok {
		return true
	}
	_, ok := m.dyn.funcAddr[sym]
	return ok
}

// resolveAddr resolves a symbol to an address across the image and
// loaded modules.
func (m *M) resolveAddr(sym string) (int64, bool) {
	if a, ok := m.Img.GlobalAddr[sym]; ok {
		return a, true
	}
	if a, ok := m.Img.FuncAddr[sym]; ok {
		return a, true
	}
	if m.dyn != nil {
		if a, ok := m.dyn.globalAddr[sym]; ok {
			return a, true
		}
		if a, ok := m.dyn.funcAddr[sym]; ok {
			return a, true
		}
	}
	return 0, false
}

// dynFunc looks up a dynamically loaded function by name.
func (m *M) dynFunc(sym string) (*obj.Func, bool) {
	if m.dyn == nil {
		return nil, false
	}
	fn, ok := m.dyn.funcs[sym]
	return fn, ok
}

// dynFuncByAddr looks up a dynamically loaded function by text address.
func (m *M) dynFuncByAddr(addr int64) (*obj.Func, bool) {
	if m.dyn == nil {
		return nil, false
	}
	fn, ok := m.dyn.funcByAddr[addr]
	return fn, ok
}
