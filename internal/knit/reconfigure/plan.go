// Package reconfigure turns a wiring change into a safe operation on a
// running system: diff the live configuration against a target .unit
// file, compute the minimal rewire plan, apply it transactionally to a
// live machine, and (for fleets) trial it on canary shards under
// SLO-gated judgment before promoting it fleet-wide.
//
// The premise is the paper's (§2): component wiring is data. A Knit
// configuration names every instance positionally, and elaboration is
// deterministic, so two configurations can be compared slot by slot.
// Slots whose unit, sources, and wiring are byte-identical keep their
// running code and their callers; slots that changed get a freshly
// elaborated instance loaded as a dynamic module and take over via
// interposition (§2.3) — the same machinery the supervision layer uses
// for fallback swaps, now driven by an operator's target configuration
// instead of a fault.
package reconfigure

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"knit/internal/knit/build"
	"knit/internal/knit/constraint"
	"knit/internal/knit/link"
	"knit/internal/knit/sched"
)

// Target is the configuration a live system should be rewired into: a
// full standalone .unit description, exactly what a cold build would
// take. The planner, not the operator, figures out what the minimal
// change is.
type Target struct {
	// Top names the top-level unit to elaborate.
	Top string
	// UnitFiles holds the target's unit-definition files.
	UnitFiles map[string]string
	// Sources is the virtual filesystem for the units' files{} sections.
	Sources link.Sources
	// Check runs the constraint checker over the target program and
	// rejects the plan on a violation — before anything touches a
	// machine.
	Check bool
}

// slotChange pairs one wiring slot's base and target instances. A nil
// base is an addition, a nil tgt a retirement, both non-nil a
// replacement. reinit marks a slot whose unit did not change but whose
// initializer-captured state would go stale — it is reloaded so the
// initializer re-runs against the new providers.
type slotChange struct {
	slot   string
	base   *link.Instance
	tgt    *link.Instance
	reinit bool
}

// exportRewire records a top-level export whose provider slot changed:
// callers holding the old resolved global must be redirected to the new
// provider's.
type exportRewire struct {
	name     string
	baseWire *link.Wire
	tgtWire  *link.Wire
}

// Plan is a validated reconfiguration: the target program, and the
// minimal slot-level change set from the base build to it. Plans are
// machine-independent — one plan applies to every shard of a fleet.
type Plan struct {
	res *build.Result
	tgt Target

	reg    *link.Registry
	prog   *link.Program
	sched  *sched.Schedule
	report *constraint.Report

	unchanged []slotChange
	replaces  []slotChange
	adds      []slotChange
	retires   []slotChange
	// ordered is replaces+adds in load order: providers before
	// consumers, so initializers meet wired imports.
	ordered       []slotChange
	exportRewires []exportRewire
}

// Step is one planned operation, for display and tracing.
type Step struct {
	Op     string // "load", "interpose", "rewire-export", "retire"
	Slot   string
	Detail string
}

// Diff parses and links the target configuration, validates it (schedule
// computation, and the §4 constraint checker when tgt.Check is set), and
// computes the minimal rewire plan from res's static program to it.
// Configurations are compared positionally: slot identity is the
// instance's position in the linking structure, so renaming a unit in
// place is a replacement, not a retire-plus-add. The target parses
// through res's front end (build.Result.Cache), so only the files that
// differ from the running build's are parsed.
func Diff(res *build.Result, tgt Target) (*Plan, error) {
	fe := res.Cache().FrontEnd()
	files, err := fe.ParseUnitFiles(tgt.UnitFiles)
	if err != nil {
		return nil, fmt.Errorf("reconfigure: target: %w", err)
	}
	reg, err := link.NewRegistry(files...)
	if err != nil {
		return nil, fmt.Errorf("reconfigure: target: %w", err)
	}
	prog, err := link.Elaborate(reg, tgt.Top, tgt.Sources, fe)
	if err != nil {
		return nil, fmt.Errorf("reconfigure: target: %w", err)
	}
	sc, err := sched.Compute(prog)
	if err != nil {
		return nil, fmt.Errorf("reconfigure: target: %w", err)
	}
	p := &Plan{res: res, tgt: tgt, reg: reg, prog: prog, sched: sc}
	if tgt.Check {
		report, err := constraint.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("reconfigure: target rejected: %w", err)
		}
		p.report = report
	}
	if err := p.classify(); err != nil {
		return nil, err
	}
	p.propagateStaleInits()
	if err := p.checkExports(); err != nil {
		return nil, err
	}
	if err := p.order(); err != nil {
		return nil, err
	}
	return p, nil
}

// slotKey reduces an instance path to its positional identity: the
// link-line indices along the path, with unit names stripped. Two
// configurations with the same linking shape produce the same slot keys
// regardless of which units fill the slots.
func slotKey(path string) string {
	segs := strings.Split(path, "/")
	for i, seg := range segs {
		if j := strings.IndexByte(seg, '#'); j >= 0 {
			segs[i] = seg[j:]
		} else {
			segs[i] = ""
		}
	}
	return strings.Join(segs, "/")
}

// classify buckets every slot of base and target into unchanged /
// replace / add / retire.
func (p *Plan) classify() error {
	baseBy := map[string]*link.Instance{}
	for _, inst := range p.res.Program.Instances {
		baseBy[slotKey(inst.Path)] = inst
	}
	tgtBy := map[string]*link.Instance{}
	for _, inst := range p.prog.Instances {
		tgtBy[slotKey(inst.Path)] = inst
	}
	slots := make([]string, 0, len(baseBy)+len(tgtBy))
	for s := range baseBy {
		slots = append(slots, s)
	}
	for s := range tgtBy {
		if _, ok := baseBy[s]; !ok {
			slots = append(slots, s)
		}
	}
	sort.Strings(slots)
	for _, s := range slots {
		b, t := baseBy[s], tgtBy[s]
		switch {
		case b != nil && t == nil:
			p.retires = append(p.retires, slotChange{slot: s, base: b})
		case b == nil && t != nil:
			p.adds = append(p.adds, slotChange{slot: s, tgt: t})
		case sameInstance(b, t):
			p.unchanged = append(p.unchanged, slotChange{slot: s, base: b, tgt: t})
		default:
			if err := exportCompatible(b, t); err != nil {
				return fmt.Errorf("reconfigure: slot %s (%s -> %s): %w",
					slotName(s, b), b.Unit.Name, t.Unit.Name, err)
			}
			p.replaces = append(p.replaces, slotChange{slot: s, base: b, tgt: t})
		}
	}
	return nil
}

// sameInstance reports whether a slot's base and target instances are
// interchangeable without touching the machine: the same unit and
// instance ID, the same renamed sources and assembly objects, the same
// wiring (by provider slot), and the same initializer and export
// surface. The ID check, b.ID != t.ID, is what lets unchanged callers
// keep their resolved globals: the IDs are in the generated names. A
// renamed source is the same when what it is made from is: the file's
// name and its link.FileOrigin (text and renames), the identity the
// build cache keys it by. So a file whose text differs only in comments
// or layout counts as changed.
func sameInstance(b, t *link.Instance) bool {
	if b.Unit.Name != t.Unit.Name || b.ID != t.ID {
		return false
	}
	if len(b.Files) != len(t.Files) || len(b.Objects) != len(t.Objects) {
		return false
	}
	for i := range b.Files {
		bo, to := b.Origins[i], t.Origins[i]
		if b.Files[i].Name != t.Files[i].Name || bo.Text != to.Text || !maps.Equal(bo.Renames, to.Renames) {
			return false
		}
	}
	for i := range b.Objects {
		if b.Objects[i].Name != t.Objects[i].Name {
			return false
		}
	}
	if len(b.ImportWires) != len(t.ImportWires) {
		return false
	}
	for local, bw := range b.ImportWires {
		tw, ok := t.ImportWires[local]
		if !ok || bw == nil || tw == nil {
			return false
		}
		if bw.Bundle != tw.Bundle || bw.Type != tw.Type {
			return false
		}
		if slotKey(bw.Provider.Path) != slotKey(tw.Provider.Path) {
			return false
		}
	}
	if len(b.Inits) != len(t.Inits) {
		return false
	}
	for i := range b.Inits {
		bi, ti := b.Inits[i], t.Inits[i]
		if bi.Func != ti.Func || bi.GlobalName != ti.GlobalName ||
			bi.Bundle != ti.Bundle || bi.Finalizer != ti.Finalizer {
			return false
		}
	}
	if len(b.ExportSyms) != len(t.ExportSyms) {
		return false
	}
	for local, bs := range b.ExportSyms {
		ts, ok := t.ExportSyms[local]
		if !ok || len(bs) != len(ts) {
			return false
		}
		for sym, g := range bs {
			if ts[sym] != g {
				return false
			}
		}
	}
	return true
}

// propagateStaleInits promotes unchanged slots whose initializers would
// hold stale state after the change. Interposition redirects calls, not
// data: an instance whose initializer declares a dependency (a `needs`
// clause) on an import whose provider is — transitively — a changed
// slot captured its boot-time state against the old providers, and
// keeping it would make the live machine diverge from a cold build of
// the target. Reloading it re-runs the initializer against the new
// wiring. Taint flows through init-less slots too: a pure transform
// between the change and the stale initializer carries new values at
// init time even though the transform itself needs no reload.
func (p *Plan) propagateStaleInits() {
	if len(p.replaces) == 0 && len(p.adds) == 0 {
		return
	}
	// tainted: the slot serves different values once the change lands —
	// it is changed itself or transitively imports from a changed slot.
	// Fixpoint iteration keeps wiring cycles exact.
	tainted := map[string]bool{}
	for _, c := range p.replaces {
		tainted[c.slot] = true
	}
	for _, c := range p.adds {
		tainted[c.slot] = true
	}
	for again := true; again; {
		again = false
		for _, inst := range p.prog.Instances {
			s := slotKey(inst.Path)
			if tainted[s] {
				continue
			}
			for _, w := range inst.ImportWires {
				if w != nil && tainted[slotKey(w.Provider.Path)] {
					tainted[s] = true
					again = true
					break
				}
			}
		}
	}
	kept := p.unchanged[:0]
	for _, c := range p.unchanged {
		if staleInit(c.tgt, tainted) {
			c.reinit = true
			p.replaces = append(p.replaces, c)
			continue
		}
		kept = append(kept, c)
	}
	p.unchanged = kept
	sort.Slice(p.replaces, func(i, j int) bool { return p.replaces[i].slot < p.replaces[j].slot })
}

// staleInit reports whether inst has a non-finalizer initializer whose
// declared needs reach a tainted provider.
func staleInit(inst *link.Instance, tainted map[string]bool) bool {
	for _, in := range inst.Inits {
		if in.Finalizer {
			continue
		}
		for _, local := range in.Needs {
			if w := inst.ImportWires[local]; w != nil && tainted[slotKey(w.Provider.Path)] {
				return true
			}
		}
	}
	return false
}

// exportCompatible checks that t can take over b's callers: every export
// bundle of b exists on t with the same bundle type and the same symbol
// set. (The renamed globals may differ — interposition bridges those —
// but a caller-visible symbol with no replacement would strand calls.)
func exportCompatible(b, t *link.Instance) error {
	for _, exp := range b.Unit.Exports {
		var ttype string
		for _, texp := range t.Unit.Exports {
			if texp.Local == exp.Local {
				ttype = texp.Type
			}
		}
		if ttype == "" {
			return fmt.Errorf("replacement drops export bundle %q", exp.Local)
		}
		if ttype != exp.Type {
			return fmt.Errorf("replacement export %q has bundle type %s, base has %s",
				exp.Local, ttype, exp.Type)
		}
		for sym := range b.ExportSyms[exp.Local] {
			if _, ok := t.ExportSyms[exp.Local][sym]; !ok {
				return fmt.Errorf("replacement export bundle %q drops symbol %q", exp.Local, sym)
			}
		}
	}
	return nil
}

// checkExports validates the target's top-level export surface against
// the base's — live callers hold resolved globals of the base exports,
// so an export may move to a new provider (a rewire) but not vanish or
// change type; and a target inventing exports has no live callers to
// serve, which almost always indicates a wrong Top.
func (p *Plan) checkExports() error {
	for name, bw := range p.res.Program.Exports {
		tw, ok := p.prog.Exports[name]
		if !ok {
			return fmt.Errorf("reconfigure: target drops top-level export %q", name)
		}
		if tw.Type != bw.Type {
			return fmt.Errorf("reconfigure: top-level export %q has bundle type %s, base has %s",
				name, tw.Type, bw.Type)
		}
		if slotKey(tw.Provider.Path) != slotKey(bw.Provider.Path) || tw.Bundle != bw.Bundle {
			p.exportRewires = append(p.exportRewires, exportRewire{name: name, baseWire: bw, tgtWire: tw})
		}
	}
	for name := range p.prog.Exports {
		if _, ok := p.res.Program.Exports[name]; !ok {
			return fmt.Errorf("reconfigure: target adds top-level export %q the live program lacks", name)
		}
	}
	sort.Slice(p.exportRewires, func(i, j int) bool {
		return p.exportRewires[i].name < p.exportRewires[j].name
	})
	return nil
}

// order topo-sorts the new instances (replaces + adds) by their wiring:
// providers load, initialize, and take over their callers before
// consumers. The dependency is transitive through unchanged slots — a
// consumer's initializer may read a changed provider through an
// untouched intermediate, whose calls resolve via the provider's
// redirect, so the provider must be interposed first. Mutually
// recursive changes cannot be loaded one-by-one and are rejected
// (replace the enclosing scope instead).
func (p *Plan) order() error {
	newBy := map[string]slotChange{}
	for _, c := range p.replaces {
		newBy[c.slot] = c
	}
	for _, c := range p.adds {
		newBy[c.slot] = c
	}
	slots := make([]string, 0, len(newBy))
	for s := range newBy {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	deps := map[string][]string{}
	indeg := map[string]int{}
	for _, s := range slots {
		for _, ps := range sortedKeys(upstreamNew(newBy[s].tgt, newBy)) {
			if ps == s {
				continue
			}
			deps[ps] = append(deps[ps], s)
			indeg[s]++
		}
	}
	queue := make([]string, 0, len(slots))
	for _, s := range slots {
		if indeg[s] == 0 {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		p.ordered = append(p.ordered, newBy[s])
		next := append([]string(nil), deps[s]...)
		sort.Strings(next)
		for _, t := range next {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(p.ordered) != len(slots) {
		var cyc []string
		for _, s := range slots {
			if indeg[s] > 0 {
				cyc = append(cyc, slotName(s, newBy[s].tgt))
			}
		}
		return fmt.Errorf("reconfigure: changed slots are mutually recursive (%s); replace the enclosing scope instead",
			strings.Join(cyc, ", "))
	}
	return nil
}

// upstreamNew returns the changed slots reachable upstream of inst in
// the target wiring, traversing unchanged intermediates. Traversal
// stops at a changed slot: topological transitivity covers anything
// deeper.
func upstreamNew(inst *link.Instance, newBy map[string]slotChange) map[string]bool {
	out := map[string]bool{}
	seen := map[string]bool{}
	var walk func(*link.Instance)
	walk = func(i *link.Instance) {
		for _, w := range i.ImportWires {
			if w == nil {
				continue
			}
			ps := slotKey(w.Provider.Path)
			if seen[ps] {
				continue
			}
			seen[ps] = true
			if _, isNew := newBy[ps]; isNew {
				out[ps] = true
				continue
			}
			walk(w.Provider)
		}
	}
	walk(inst)
	return out
}

// NoOp reports whether the plan changes nothing.
func (p *Plan) NoOp() bool {
	return len(p.replaces) == 0 && len(p.adds) == 0 &&
		len(p.retires) == 0 && len(p.exportRewires) == 0
}

// Program returns the elaborated target program (for inspection and for
// cold-build comparison in tests).
func (p *Plan) Program() *link.Program { return p.prog }

// Schedule returns the target program's init/fini schedule.
func (p *Plan) Schedule() *sched.Schedule { return p.sched }

// ConstraintReport returns the target's constraint report (nil unless
// Target.Check was set).
func (p *Plan) ConstraintReport() *constraint.Report { return p.report }

// Steps lists the planned operations in execution order: each slot's
// load is followed immediately by the interpositions that hand it the
// old instance's callers, mirroring Apply.
func (p *Plan) Steps() []Step {
	var out []Step
	for _, c := range p.ordered {
		switch {
		case c.reinit:
			out = append(out, Step{Op: "load", Slot: c.base.Path,
				Detail: fmt.Sprintf("reload %s (initializer depends on replaced providers)", c.base.Unit.Name)})
		case c.base != nil:
			out = append(out, Step{Op: "load", Slot: c.base.Path,
				Detail: fmt.Sprintf("replace %s with %s", c.base.Unit.Name, c.tgt.Unit.Name)})
		default:
			out = append(out, Step{Op: "load", Slot: c.tgt.Path,
				Detail: "add " + c.tgt.Unit.Name})
			continue
		}
		for _, local := range sortedKeys(c.base.ExportSyms) {
			for _, sym := range sortedKeys(c.base.ExportSyms[local]) {
				out = append(out, Step{Op: "interpose", Slot: c.base.Path,
					Detail: fmt.Sprintf("%s -> replacement %s.%s", c.base.ExportSyms[local][sym], local, sym)})
			}
		}
	}
	for _, rw := range p.exportRewires {
		out = append(out, Step{Op: "rewire-export", Slot: rw.name,
			Detail: fmt.Sprintf("provider %s -> %s", rw.baseWire.Provider.Path, rw.tgtWire.Provider.Path)})
	}
	for _, c := range p.retires {
		out = append(out, Step{Op: "retire", Slot: c.base.Path, Detail: "no longer wired"})
	}
	return out
}

// Summary is a one-line account of the plan's shape.
func (p *Plan) Summary() string {
	return fmt.Sprintf("%d unchanged, %d replace, %d add, %d retire, %d export rewires",
		len(p.unchanged), len(p.replaces), len(p.adds), len(p.retires), len(p.exportRewires))
}

func slotName(slot string, inst *link.Instance) string {
	if inst != nil {
		return inst.Path
	}
	return slot
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
