package machine

import (
	"fmt"
	"slices"
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
// text, data, and symbol records — after verifying that no other live
// module still references them. Dynamic state is per-machine:
// Reset drops all loaded modules along with the rest of the run-time
// state.

// dynState holds a machine's dynamically loaded modules: their symbol
// records, in one name-keyed overlay on the image's, and the modules
// themselves, each listing the records it owns.
type dynState struct {
	syms     map[string]*symbol
	textSize int64
	modules  []*dynModule // live modules, in load order
}

// dynModule records what one LoadDynamic committed, so it can be
// reclaimed record-for-record and byte-for-byte. Its layout, the
// module's string table and initial data runs, is read-only once
// placed, and clones share it.
type dynModule struct {
	name  string
	owner string // unit-instance attribution, may be ""
	layout
	// syms are the module's records: data in name order, then functions
	// in text order.
	syms     []*symbol
	refs     []string // external symbols this module's code/data references
	dataBase int64    // [dataBase, dataEnd) in m.Mem
	dataEnd  int64
	textBase int64 // [textBase, textEnd) in text offsets
	textEnd  int64
}

// clone copies every module and each of its records, so that no record
// is shared by a machine and a snapshot, nor by two machines restored
// from one snapshot. Compiled forms are dropped, to be rebuilt lazily
// against the copies.
func (d *dynState) clone() *dynState {
	c := &dynState{syms: make(map[string]*symbol, len(d.syms)), textSize: d.textSize}
	for _, mod := range d.modules {
		cm := *mod
		cm.syms = make([]*symbol, len(mod.syms))
		recs := make([]symbol, len(mod.syms))
		for i, s := range mod.syms {
			recs[i] = *s
			cs := &recs[i]
			cs.mod, cs.cf = &cm, nil
			cm.syms[i] = cs
			c.syms[cs.name] = cs
		}
		c.modules = append(c.modules, &cm)
	}
	return c
}

// renumber draws fresh indices for every live function from *next, in
// load order: what a snapshot taken on another machine needs, since its
// indices were drawn from that machine's counter.
func (d *dynState) renumber(next *int) {
	for _, mod := range d.modules {
		for _, s := range mod.syms {
			if s.fn != nil {
				s.index = *next
				*next++
			}
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
// named module, placed as Load places the image: its data appended to
// memory, its functions after the live text. Every data symbol
// referenced by the module must resolve (image, earlier modules, or the
// module itself); function references may also be satisfied by builtins
// at call time, like static calls. Every function and data object the
// module defines, static or not, must be new to the machine. owner,
// when non-empty, attributes the module's symbols to a unit instance
// for trap reporting. Returns an error and loads nothing on failure; a
// successful load can be reversed by UnloadDynamic(name).
func (m *M) LoadDynamicAs(name, owner string, o *obj.File) error {
	if name == "" {
		return &LoadError{Msg: "dynamic: module needs a name"}
	}
	if m.dyn == nil {
		m.dyn = &dynState{syms: map[string]*symbol{}}
	}
	if m.dyn.module(name) != nil {
		return &LoadError{Msg: fmt.Sprintf("dynamic: module %q already loaded", name)}
	}
	dataBase, textStart := int64(len(m.Mem)), m.Img.TextSize+m.dyn.textSize
	p, err := place(o, m.Costs, dataBase, textStart, m.lookup)
	if err != nil {
		err.Msg = "dynamic: " + err.Msg
		return err
	}

	// Commit. Functions draw their indices in text order.
	mod := &dynModule{
		name: name, owner: owner, layout: p.layout,
		syms:     make([]*symbol, len(p.recs)),
		refs:     moduleRefs(o, p.syms),
		dataBase: dataBase, dataEnd: p.dataEnd,
		textBase: textStart, textEnd: p.textEnd,
	}
	m.Mem = slices.Grow(m.Mem, int(p.dataEnd-dataBase))[:p.dataEnd]
	mod.writeInit(m.Mem, dataBase, p.dataEnd)
	for i := range p.recs {
		s := &p.recs[i]
		s.mod = mod
		if s.fn != nil {
			s.index = m.nextIndex
			m.nextIndex++
		}
		mod.syms[i] = s
		m.dyn.syms[s.name] = s
	}
	m.dyn.textSize = p.textEnd - m.Img.TextSize
	m.dyn.modules = append(m.dyn.modules, mod)
	// New definitions can satisfy call sites previously resolved to a
	// builtin or to undefined; drop the compiled dispatch caches.
	m.dispVersion++
	return nil
}

// moduleRefs collects the external symbols a module's code and data
// reference — the names that must stay resolvable for the module to
// keep running, and therefore the names that pin other modules in
// memory until this one is unloaded.
func moduleRefs(o *obj.File, local map[string]*symbol) []string {
	seen := map[string]bool{}
	add := func(sym string) {
		if sym != "" && local[sym] == nil {
			seen[sym] = true
		}
	}
	for _, s := range local {
		if s.fn == nil {
			continue
		}
		for i := range s.fn.Code {
			switch s.fn.Code[i].Op {
			case obj.OpCall, obj.OpAddrGlobal:
				add(s.fn.Code[i].Sym)
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
	slices.Sort(out)
	return out
}

// UnloadDynamic reverses a LoadDynamicAs: it removes the named module's
// records from the machine's namespace and reclaims its memory.
// The unload is refused — and nothing changes — if any other live
// module's code or data references one of the module's symbols, the
// same puzzle-piece discipline the loader enforces, run in reverse.
//
// Reclamation detail: memory and text shrink back to the end of the
// highest live module, or to the dynamic region's base when none is
// left, so an unload reclaims the module together with every dead
// module below it and above the live ones: after loading A, B and C
// and unloading B then C, memory and text end exactly where A's do. A
// module unloaded from under a live one (the upgrade pattern: load the
// new module, then unload the old) leaves its data region zeroed and
// its text range unreclaimed, a hole that stays as long as any module
// above it lives, because a live module's addresses never move and
// loads only append.
func (m *M) UnloadDynamic(name string) error {
	if m.dyn == nil || m.dyn.module(name) == nil {
		return &LoadError{Msg: fmt.Sprintf("dynamic: no loaded module %q", name)}
	}
	mod := m.dyn.module(name)
	owned := func(sym string) bool {
		s := m.dyn.syms[sym]
		return s != nil && s.mod == mod
	}
	for _, other := range m.dyn.modules {
		if other == mod {
			continue
		}
		for _, ref := range other.refs {
			if owned(ref) {
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
		if owned(to) && (pin == "" || from < pin) {
			pin = from
		}
	}
	if pin != "" {
		return &LoadError{Msg: fmt.Sprintf(
			"dynamic: cannot unload module %q: calls to %q are interposed onto its symbol %q",
			name, pin, m.redirect[pin])}
	}

	// Reclaim the module's records, compiled forms included. Live
	// modules keep theirs: the addresses baked into them never move.
	for _, s := range mod.syms {
		delete(m.dyn.syms, s.name)
	}
	// Reclaim memory and text down to the highest region end any
	// *other* live module still claims — a module loaded later than
	// this one may hold an (empty) region right at the current end of
	// memory, and its base must stay in bounds — or to the dynamic
	// region's base.
	memEnd := m.stackLimit
	textEnd := m.Img.TextSize
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
	m.Mem = m.Mem[:memEnd]
	for i := mod.dataBase; i < mod.dataEnd && i < memEnd; i++ {
		m.Mem[i] = 0
	}
	m.dyn.textSize = textEnd - m.Img.TextSize
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
	m.dispVersion++ // call sites cached onto the module are dead
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

// CheckDynInvariants validates the machine's dynamic records against
// the live modules: the overlay must hold exactly the records the live
// modules own, one per name and none shadowing the image (no dangling
// or doubly owned symbol after an unload), each function's index must
// be its own and its address must match its text offset inside its
// module's text, and module memory/text regions must be disjoint and in
// bounds. Test harnesses run it after every load/unload step; it is
// cheap but not free.
func (m *M) CheckDynInvariants() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("machine: dynamic invariant violated: "+format, args...)
	}
	// Every interposition target must be a defined function: a redirect
	// onto a reclaimed module would turn calls into undefined-call
	// traps, which is exactly the residue a failed swap must not leave
	// behind. Checked before the dynamic records because redirects can
	// outlive the last module (static-to-static interposition).
	for from, to := range m.redirect {
		if s := m.lookup(to); s == nil || s.fn == nil {
			return fail("redirect %q -> %q targets an undefined function", from, to)
		}
	}
	if m.dyn == nil {
		return nil
	}
	d := m.dyn
	owned := 0
	indexOf := map[int]string{}
	for _, mod := range d.modules {
		if mod.dataBase < m.stackLimit || mod.dataEnd > int64(len(m.Mem)) || mod.dataBase > mod.dataEnd {
			return fail("module %q data region [%d,%d) out of bounds (mem %d)",
				mod.name, mod.dataBase, mod.dataEnd, len(m.Mem))
		}
		if mod.textBase < m.Img.TextSize || mod.textEnd > m.Img.TextSize+d.textSize || mod.textBase > mod.textEnd {
			return fail("module %q text region [%d,%d) out of bounds", mod.name, mod.textBase, mod.textEnd)
		}
		for _, s := range mod.syms {
			owned++
			if d.syms[s.name] != s || s.mod != mod {
				return fail("symbol %q of module %q is not the record its name resolves to", s.name, mod.name)
			}
			if m.Img.syms[s.name] != nil {
				return fail("dynamic symbol %q shadows an image symbol", s.name)
			}
			if s.fn == nil {
				continue
			}
			if s.index < len(m.Img.funcs) || s.index >= m.nextIndex {
				return fail("func %q has index %d outside [%d,%d)", s.name, s.index, len(m.Img.funcs), m.nextIndex)
			}
			if other, dup := indexOf[s.index]; dup {
				return fail("funcs %q and %q share index %d", other, s.name, s.index)
			}
			indexOf[s.index] = s.name
			if text := s.addr - textBase; text < mod.textBase || text > mod.textEnd {
				return fail("func %q at text offset %d is outside module %q", s.name, text, mod.name)
			}
		}
	}
	if owned != len(d.syms) {
		return fail("%d dynamic records, but live modules own %d", len(d.syms), owned)
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
	return nil
}

// resolveAddr resolves a symbol to its address across the image and
// loaded modules.
func (m *M) resolveAddr(sym string) (int64, bool) {
	if s := m.lookup(sym); s != nil {
		return s.addr, true
	}
	return 0, false
}
