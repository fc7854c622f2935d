package machine

import "fmt"

// This file implements run-time symbol interposition: redirecting every
// direct call (and Run entry) aimed at one function symbol to another
// function with the same signature. It is the machine half of the
// supervision layer's fallback swap — the paper's §2.3 interposition
// story, applied to a live machine instead of a static link. Redirects
// deliberately do not touch indirect calls: a function address taken
// before the interposition keeps meaning the original code, exactly as
// a real-machine PLT-level interposition would behave.

// Interpose redirects direct calls and Run entries for sym to target.
// Both must currently resolve to defined functions (static image or
// live dynamic module) and agree on argument count. Existing redirects
// whose target is sym are re-pointed at target too (path compression),
// so chains never grow beyond one hop and a superseded module's symbols
// stop being referenced the moment it is interposed away — which is
// what lets the supervisor unload it afterwards.
func (m *M) Interpose(sym, target string) error {
	from := m.lookup(sym)
	if from == nil || from.fn == nil {
		return &LoadError{Msg: fmt.Sprintf("interpose: %q does not name a defined function", sym)}
	}
	// Resolve the target through existing redirects first: interposing
	// a -> b while b is already redirected to c must land on c, or the
	// table would grow multi-hop chains.
	final := m.interposed(target)
	if final == sym {
		return &LoadError{Msg: fmt.Sprintf("interpose: redirect %q -> %q would form a cycle", sym, target)}
	}
	to := m.lookup(final)
	if to == nil || to.fn == nil {
		return &LoadError{Msg: fmt.Sprintf("interpose: target %q does not name a defined function", final)}
	}
	if from.fn.NArgs != to.fn.NArgs {
		return &LoadError{Msg: fmt.Sprintf(
			"interpose: %q takes %d args but target %q takes %d", sym, from.fn.NArgs, final, to.fn.NArgs)}
	}
	if m.redirect == nil {
		m.redirect = map[string]string{}
	}
	for k, v := range m.redirect {
		if v == sym {
			m.redirect[k] = final
		}
	}
	m.redirect[sym] = final
	// The compiled backend caches resolved call targets per site;
	// invalidate them all so the very next call to sym (even one made by
	// a frame already running) lands on the replacement.
	m.dispVersion++
	return nil
}

// Unpose removes the redirect installed for sym, if any, restoring
// direct calls to the original definition.
func (m *M) Unpose(sym string) {
	delete(m.redirect, sym)
	m.dispVersion++ // drop compiled dispatch caches holding the redirect
}

// Interposed reports where calls to sym currently land: the redirect
// target, or "" when sym is not interposed.
func (m *M) Interposed(sym string) string {
	if m.redirect == nil {
		return ""
	}
	return m.redirect[sym]
}

// interposed resolves a symbol through the redirect table. Compression
// in Interpose keeps the table one hop deep, but follow chains anyway
// so a restored pre-compression snapshot stays correct.
func (m *M) interposed(sym string) string {
	if m.redirect == nil {
		return sym
	}
	for hops := 0; hops <= len(m.redirect); hops++ {
		next, ok := m.redirect[sym]
		if !ok {
			return sym
		}
		sym = next
	}
	return sym
}

// ResetData restores the initial (load-time) contents of the given
// data symbols, the image's or a live dynamic module's, from the initial
// data runs of the layout each was placed in, returning how many were
// reset. Names that are not defined data — functions, ambient names —
// are skipped. The supervision layer uses this to give a failed
// component a genuinely fresh start: statics back to their initializer
// values, then its initializers re-run.
func (m *M) ResetData(syms []string) int {
	n := 0
	for _, name := range syms {
		if s := m.lookup(name); s != nil && s.fn == nil {
			m.Img.layoutOf(s).writeInit(m.Mem, s.addr, s.addr+s.size)
			n++
		}
	}
	return n
}
