package reconfigure

import (
	"fmt"

	"knit/internal/knit/build"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// Applied is one plan's footprint on one machine: the pre-apply
// snapshot, the modules it loaded, and the interposition anchors it
// installed. It is the currency of rollback — and the prev argument of
// the next Apply, which retires a superseded upgrade's modules once the
// newer one has taken over.
type Applied struct {
	// Snap is the machine's state from immediately before the first
	// plan step — what Rollback restores.
	Snap *machine.Snapshot

	plan *Plan
	m    *machine.M

	// mods are the modules this apply loaded, in load order.
	mods []*build.LoadedUnit
	// Anchors are the interposed symbols (redirect sources) this apply
	// installed: the base globals every live caller still calls.
	Anchors []string

	rolledBack bool
}

// Apply executes the plan on m transactionally: snapshot, then load the
// new instances in dependency order (their initializers run as they
// load), interposing each replaced slot's export globals as soon as its
// replacement is in — then rewire moved top-level exports and retire
// what the plan and the previous apply superseded.
// Any failure restores the pre-apply snapshot — zero residue, verifiable
// with machine.M.StateEqual — and returns the step's error.
//
// prev is the Applied of the upgrade currently serving on m (nil for a
// first upgrade): its interpositions are superseded by this plan's and
// its modules are unloaded once nothing routes to them.
func (p *Plan) Apply(m *machine.M, prev *Applied) (*Applied, error) {
	if prev != nil && prev.rolledBack {
		prev = nil
	}
	res := p.res
	live := res.LiveProgram(m)

	// Elaborate every new instance against the live program, wiring
	// imports to the base instances that keep their slots and to the
	// replacements elaborated before it. Each instance joins the live
	// program as it is born so IDs keep advancing.
	newLive := map[string]*link.Instance{}
	insts := make([]*link.Instance, 0, len(p.ordered))
	for _, c := range p.ordered {
		env := map[string]*link.Wire{}
		for local, w := range c.tgt.ImportWires {
			if w == nil {
				return nil, fmt.Errorf("reconfigure: slot %s: import %q unwired in target", c.slot, local)
			}
			ps := slotKey(w.Provider.Path)
			provider := newLive[ps]
			if provider == nil {
				provider = baseForSlot(res.Program, ps)
			}
			if provider == nil {
				return nil, fmt.Errorf("reconfigure: slot %s: import %q wired to unknown slot %s",
					c.slot, local, ps)
			}
			env[local] = &link.Wire{Provider: provider, Bundle: w.Bundle, Type: w.Type}
		}
		inst, err := link.ElaborateDynamicEnv(p.reg, live, c.tgt.Unit.Name, p.tgt.Sources, env, res.Cache().FrontEnd())
		if err != nil {
			return nil, fmt.Errorf("reconfigure: slot %s: %w", c.slot, err)
		}
		live.Instances = append(live.Instances, inst)
		newLive[c.slot] = inst
		insts = append(insts, inst)
	}

	a := &Applied{plan: p, m: m}
	a.Snap = m.Snapshot()
	fail := func(err error) (*Applied, error) {
		m.Restore(a.Snap)
		return nil, err
	}

	// Load and take over slot by slot, in dependency order. Each replaced
	// slot's exports are interposed immediately after its load, before
	// the next slot loads: a later initializer may read the changed slot
	// through an unchanged intermediate (whose calls resolve via the
	// redirect, not the env wiring), and must see the new code, not the
	// old. Interpose re-points redirects whose target is the anchored
	// symbol, so a second upgrade overriding a first lands cleanly and
	// frees the first's modules.
	for i, c := range p.ordered {
		lu, err := res.LoadElaborated(m, insts[i])
		if err != nil {
			return fail(fmt.Errorf("reconfigure: load %s: %w", c.slot, err))
		}
		a.mods = append(a.mods, lu)
		if c.base == nil {
			continue
		}
		repl := newLive[c.slot]
		for _, local := range sortedKeys(c.base.ExportSyms) {
			for _, sym := range sortedKeys(c.base.ExportSyms[local]) {
				from := c.base.ExportSyms[local][sym]
				to := repl.ExportSyms[local][sym]
				if err := m.Interpose(from, to); err != nil {
					return fail(fmt.Errorf("reconfigure: interpose %s: %w", c.slot, err))
				}
				a.Anchors = append(a.Anchors, from)
			}
		}
		res.Notify(m, c.base.Path, "swap")
	}
	for _, rw := range p.exportRewires {
		ps := slotKey(rw.tgtWire.Provider.Path)
		provider := newLive[ps]
		if provider == nil {
			provider = baseForSlot(res.Program, ps)
		}
		if provider == nil {
			return fail(fmt.Errorf("reconfigure: export %q rewired to unknown slot %s", rw.name, ps))
		}
		for _, sym := range sortedKeys(rw.baseWire.Provider.ExportSyms[rw.baseWire.Bundle]) {
			from := rw.baseWire.Provider.ExportSyms[rw.baseWire.Bundle][sym]
			to, ok := provider.ExportSyms[rw.tgtWire.Bundle][sym]
			if !ok {
				return fail(fmt.Errorf("reconfigure: export %q: new provider lacks symbol %q", rw.name, sym))
			}
			if from == to {
				continue
			}
			if err := m.Interpose(from, to); err != nil {
				return fail(fmt.Errorf("reconfigure: rewire export %q: %w", rw.name, err))
			}
			a.Anchors = append(a.Anchors, from)
		}
	}

	// Retire the superseded upgrade: drop its anchors that this plan did
	// not re-anchor (Interpose has already re-pointed the shared ones),
	// then unload its modules newest-first. Unpose must come first —
	// a module stays pinned while any redirect targets its code.
	if prev != nil {
		anchored := map[string]bool{}
		for _, s := range a.Anchors {
			anchored[s] = true
		}
		for _, s := range prev.Anchors {
			if !anchored[s] {
				m.Unpose(s)
			}
		}
		for i := len(prev.mods) - 1; i >= 0; i-- {
			lu := prev.mods[i]
			if err := lu.Unload(m); err != nil {
				return fail(fmt.Errorf("reconfigure: retire %s: %w", lu.Name(), err))
			}
		}
	}
	// Statically linked instances that lost their wiring stay in the
	// image (static text cannot be reclaimed) but no longer serve any
	// caller; report the retirement so ledgers show it.
	for _, c := range p.retires {
		res.Notify(m, c.base.Path, "retire")
	}
	return a, nil
}

// Rollback restores the machine to its pre-apply snapshot: the modules
// this apply loaded vanish and the ones it retired come back, in the
// machine's module table that the build layer reads. Idempotent.
func (a *Applied) Rollback() {
	if a.rolledBack {
		return
	}
	a.m.Restore(a.Snap)
	for _, c := range a.plan.ordered {
		if c.base != nil {
			a.plan.res.Notify(a.m, c.base.Path, "rollback")
		}
	}
	a.rolledBack = true
}

// RolledBack reports whether Rollback ran.
func (a *Applied) RolledBack() bool { return a.rolledBack }

// VerifyRolledBack certifies a rollback left zero residue: the
// machine's program state is compared word-for-word against the
// pre-apply snapshot.
func (a *Applied) VerifyRolledBack() error {
	if !a.rolledBack {
		return fmt.Errorf("reconfigure: apply is still live")
	}
	return a.m.StateEqual(a.Snap)
}

// Modules returns the loaded modules' machine-level names, in load
// order.
func (a *Applied) Modules() []string {
	out := make([]string, len(a.mods))
	for i, lu := range a.mods {
		out[i] = lu.Name()
	}
	return out
}

// baseForSlot finds the static program's instance in a slot.
func baseForSlot(prog *link.Program, slot string) *link.Instance {
	for _, inst := range prog.Instances {
		if slotKey(inst.Path) == slot {
			return inst
		}
	}
	return nil
}
