package assemble

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"knit/internal/knit/constraint"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
)

// provider is one way to satisfy a bundle-type demand with a fresh
// instance: a repository unit and which of its exports has the type.
type provider struct {
	unit   *lang.Unit
	export string
}

// ref names one export endpoint of the assembly under construction.
type ref struct {
	idx    int    // instance index
	export string // export local of that instance's unit
}

// node is one placed instance: the repository unit, a fabricated
// link.Instance carrying the partial wiring for constraint checks, and
// the emission-side record of which assembly export feeds each import.
type node struct {
	unit  *lang.Unit
	li    *link.Instance
	wires map[string]ref
}

// demand is one unwired endpoint: an instance's import, or (consumer
// == -1) a goal export still needing a provider.
type demand struct {
	consumer int
	local    string
	typ      string
}

// candidate is one complete satisfying wiring, ready to be named,
// printed, and verified through the real build pipeline.
type candidate struct {
	unit  *lang.Unit // compound unit; Name assigned by the verifier
	units []string   // instantiated unit names, in placement order
	key   string     // canonical structure key for dedup
}

// demandBlock explains a demand no option could satisfy.
type demandBlock struct {
	typ       string
	consumer  string   // "goal export 'x'" or an instance path
	forbidden []string // repository providers cut by the goal's avoid set
	goal      bool     // blocked demand was a goal export
	top       string   // non-empty: a fixed top restricted the providers
}

// blockers accumulates the most informative failure seen on each axis,
// from which an UnsatError is assembled if the search exhausts.
type blockers struct {
	violation *constraint.Violation
	demand    *demandBlock
	err       error // non-violation verification failure (build, init)
}

type searcher struct {
	reg  *link.Registry
	goal *Goal

	maxInst    int
	maxPerUnit int
	rawBudget  int
	pool       int // verified assemblies wanted before stopping
	workers    int // candidates verified at once, at most

	providersByType map[string][]provider
	closures        map[string][]string // unit -> sorted transitive unit-name closure

	insts     []*node
	perUnit   map[string]int
	goalWire  map[string]ref
	goalTaken map[ref]string
	bounds    []constraint.Bound

	seen      map[string]bool
	raw       int
	capped    bool // a branch died on an instance cap, not on semantics
	stopped   bool
	exhausted bool
	blk       blockers

	verify   func(*candidate) (*Assembly, error) // safe to run concurrently
	inflight []*verification                     // emitted, not yet applied; oldest first
	verified []*Assembly                         // in emission order
}

// verification is one emitted candidate's verify, run on its own
// goroutine; done is closed once asm and err are set.
type verification struct {
	done chan struct{}
	asm  *Assembly
	err  error
}

func newSearcher(reg *link.Registry, goal *Goal, maxInst, maxPerUnit, rawBudget, pool, workers int,
	verify func(*candidate) (*Assembly, error)) *searcher {
	s := &searcher{
		reg: reg, goal: goal,
		maxInst: maxInst, maxPerUnit: maxPerUnit, rawBudget: rawBudget,
		pool: pool, workers: workers,
		providersByType: map[string][]provider{},
		closures:        map[string][]string{},
		perUnit:         map[string]int{},
		goalWire:        map[string]ref{},
		goalTaken:       map[ref]string{},
		seen:            map[string]bool{},
		verify:          verify,
	}
	names := make([]string, 0, len(reg.Units))
	for name := range reg.Units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.closures[name] = s.closureOf(name, map[string]bool{})
	}
	for _, name := range names {
		u := reg.Units[name]
		if len(s.avoidHits(name)) > 0 {
			continue // the unit, or a unit inside it, is forbidden
		}
		for _, exp := range u.Exports {
			s.providersByType[exp.Type] = append(s.providersByType[exp.Type],
				provider{unit: u, export: exp.Local})
		}
	}
	return s
}

// closureOf computes the transitive set of unit names a unit
// instantiates (itself included) — the repository enumeration view of a
// compound provider, used to apply avoid sets through compounds.
func (s *searcher) closureOf(name string, onPath map[string]bool) []string {
	if c, ok := s.closures[name]; ok {
		return c
	}
	if onPath[name] {
		return []string{name} // recursive compounds are rejected later by elaboration
	}
	onPath[name] = true
	set := map[string]bool{name: true}
	if u := s.reg.Units[name]; u != nil {
		for _, l := range u.Links {
			for _, sub := range s.closureOf(l.Unit, onPath) {
				set[sub] = true
			}
		}
	}
	delete(onPath, name)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// avoidHits returns the goal-forbidden units inside the named unit's
// closure (sorted), empty when the unit is admissible.
func (s *searcher) avoidHits(name string) []string {
	var hits []string
	for _, sub := range s.closures[name] {
		for _, av := range s.goal.Avoid {
			if sub == av {
				hits = append(hits, sub)
			}
		}
	}
	return hits
}

// run seeds the fixed top and required units, queues the goal's export
// demands, and starts the backtracking enumeration. It returns once
// every emitted candidate's verification has ended and been applied.
func (s *searcher) run() {
	var stack []demand
	if s.goal.Top != "" {
		if !s.seedUnit(s.goal.Top, "goal top", &stack) {
			s.exhausted = true
			return
		}
	}
	for _, u := range s.goal.Use {
		if u == s.goal.Top {
			continue
		}
		if !s.seedUnit(u, "goal use", &stack) {
			s.exhausted = true
			return
		}
	}
	// Goal exports are pushed last (resolved first): bounds attach as
	// soon as a goal export is wired, so pruning bites early.
	for i := len(s.goal.Exports) - 1; i >= 0; i-- {
		e := s.goal.Exports[i]
		stack = append(stack, demand{consumer: -1, local: e.Local, typ: e.Type})
	}
	if s.checkPartial() {
		s.solve(stack)
	}
	s.settle()
	s.exhausted = !s.stopped
}

// seedUnit places a required unit up front. Its exports become
// available for reuse; its imports join the demand stack.
func (s *searcher) seedUnit(name, why string, stack *[]demand) bool {
	u, ok := s.reg.Units[name]
	if !ok {
		s.recordBlocker(fmt.Errorf("%s: unknown unit %q", why, name))
		return false
	}
	if hits := s.avoidHits(name); len(hits) > 0 {
		s.recordDemand(&demandBlock{
			consumer:  fmt.Sprintf("%s %s", why, name),
			forbidden: hits,
			goal:      true,
		})
		return false
	}
	_, demands, _, ok := s.place(u)
	if !ok {
		s.capped = true
		return false
	}
	*stack = append(*stack, demands...)
	return true
}

// place appends a fresh instance of u, returning its index, the
// demands for its imports, and an undo. ok is false when an instance
// cap refuses the placement.
func (s *searcher) place(u *lang.Unit) (int, []demand, func(), bool) {
	if len(s.insts) >= s.maxInst || s.perUnit[u.Name] >= s.maxPerUnit {
		return 0, nil, nil, false
	}
	idx := len(s.insts)
	li := &link.Instance{
		ID:          idx,
		Path:        fmt.Sprintf("%s#%d", u.Name, idx),
		Unit:        u,
		ImportWires: map[string]*link.Wire{},
	}
	n := &node{unit: u, li: li, wires: map[string]ref{}}
	s.insts = append(s.insts, n)
	s.perUnit[u.Name]++
	demands := make([]demand, 0, len(u.Imports))
	// Reverse order so the first import is popped first.
	for i := len(u.Imports) - 1; i >= 0; i-- {
		imp := u.Imports[i]
		demands = append(demands, demand{consumer: idx, local: imp.Local, typ: imp.Type})
	}
	undo := func() {
		s.insts = s.insts[:idx]
		s.perUnit[u.Name]--
	}
	return idx, demands, undo, true
}

// wire satisfies demand d from export r and returns an undo.
func (s *searcher) wire(d demand, r ref) func() {
	if d.consumer >= 0 {
		n := s.insts[d.consumer]
		n.wires[d.local] = r
		n.li.ImportWires[d.local] = &link.Wire{
			Provider: s.insts[r.idx].li, Bundle: r.export, Type: d.typ,
		}
		return func() {
			delete(n.wires, d.local)
			delete(n.li.ImportWires, d.local)
		}
	}
	s.goalWire[d.local] = r
	s.goalTaken[r] = d.local
	nbounds := 0
	for _, b := range s.goal.Bounds {
		if b.Arg != d.local && b.Arg != lang.ExportsKeyword {
			continue
		}
		s.bounds = append(s.bounds, constraint.Bound{
			Var:   constraint.Var{Inst: s.insts[r.idx].li, Bundle: r.export, Prop: b.Prop},
			Op:    b.Op,
			Value: b.Value,
		})
		nbounds++
	}
	return func() {
		delete(s.goalWire, d.local)
		delete(s.goalTaken, r)
		s.bounds = s.bounds[:len(s.bounds)-nbounds]
	}
}

// checkPartial runs the §4 solver over the current partial assembly
// plus the goal bounds attached so far. Unwired imports are
// unconstrained, and narrowing is monotone, so a violation here prunes
// the whole subtree.
func (s *searcher) checkPartial() bool {
	lis := make([]*link.Instance, len(s.insts))
	for i, n := range s.insts {
		lis[i] = n.li
	}
	_, err := constraint.CheckAssembly(s.reg, lis, s.bounds)
	if err == nil {
		return true
	}
	s.recordBlocker(err)
	return false
}

// solve resolves the top demand of the stack against every admissible
// option — reusing an already-placed export first, then instantiating
// each repository provider — and recurses.
func (s *searcher) solve(stack []demand) {
	if s.stopped {
		return
	}
	if len(stack) == 0 {
		s.complete()
		return
	}
	d := stack[len(stack)-1]
	rest := stack[:len(stack)-1]
	any := false

	// Reuse an export that is already part of the assembly.
	for i := 0; i < len(s.insts) && !s.stopped; i++ {
		for _, exp := range s.insts[i].unit.Exports {
			if s.stopped || exp.Type != d.typ {
				continue
			}
			r := ref{idx: i, export: exp.Local}
			if d.consumer < 0 {
				if s.goal.Top != "" && i != 0 {
					continue // goal exports must come from the fixed top
				}
				if _, taken := s.goalTaken[r]; taken {
					continue // one export local per goal export
				}
			}
			any = true
			undo := s.wire(d, r)
			if s.checkPartial() {
				s.solve(rest)
			}
			undo()
		}
	}

	// Instantiate a fresh provider from the repository.
	if d.consumer >= 0 || s.goal.Top == "" {
		for _, p := range s.providersByType[d.typ] {
			if s.stopped {
				return
			}
			idx, demands, undoPlace, ok := s.place(p.unit)
			if !ok {
				s.capped = true
				continue
			}
			any = true
			undoWire := s.wire(d, ref{idx: idx, export: p.export})
			if s.checkPartial() {
				next := append(append([]demand{}, rest...), demands...)
				s.solve(next)
			}
			undoWire()
			undoPlace()
		}
	}

	if !any {
		s.recordDemand(s.explainDemand(d))
	}
}

// explainDemand builds the no-option explanation for a dead demand:
// either nothing in the repository exports the type, or every provider
// is cut by the goal's avoid set (or by the fixed top).
func (s *searcher) explainDemand(d demand) *demandBlock {
	db := &demandBlock{typ: d.typ, goal: d.consumer < 0}
	if d.consumer < 0 {
		db.consumer = fmt.Sprintf("goal export %q", d.local)
		db.top = s.goal.Top
	} else {
		db.consumer = fmt.Sprintf("%s import %q", s.insts[d.consumer].li.Path, d.local)
	}
	names := make([]string, 0, len(s.reg.Units))
	for name := range s.reg.Units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, exp := range s.reg.Units[name].Exports {
			if exp.Type == d.typ && len(s.avoidHits(name)) > 0 {
				db.forbidden = appendIfAbsent(db.forbidden, name)
			}
		}
	}
	return db
}

func (s *searcher) recordDemand(db *demandBlock) {
	if s.blk.demand == nil || (db.goal && !s.blk.demand.goal) {
		s.blk.demand = db
	}
}

// recordBlocker records a failure the search itself hit: a constraint
// violation or another error. The first of each kind wins, in the order
// one-at-a-time verification would meet them, so every earlier
// candidate's result is applied before the search records its own.
func (s *searcher) recordBlocker(err error) {
	var v *constraint.Violation
	empty := s.blk.err == nil
	if errors.As(err, &v) {
		empty = s.blk.violation == nil
	}
	if empty {
		s.settle()
	}
	s.noteBlocker(err)
}

// noteBlocker records err unless a blocker of its kind is recorded.
func (s *searcher) noteBlocker(err error) {
	var v *constraint.Violation
	if errors.As(err, &v) {
		if s.blk.violation == nil {
			s.blk.violation = v
		}
	} else if s.blk.err == nil {
		s.blk.err = err
	}
}

// complete emits the finished assembly (deduped on canonical structure)
// for verification, stopping the search when the verified pool is full
// or the raw-candidate budget runs out. Verification runs on its own
// goroutine, and the search runs ahead only while fewer than workers
// candidates are in flight and the pool could take every one of them,
// so it verifies exactly the candidates one worker would. One worker
// waits for each candidate in turn.
func (s *searcher) complete() {
	cand := s.buildCandidate()
	if s.seen[cand.key] {
		return
	}
	s.seen[cand.key] = true
	s.raw++
	v := &verification{done: make(chan struct{})}
	s.inflight = append(s.inflight, v)
	go func(verify func(*candidate) (*Assembly, error)) {
		defer close(v.done)
		v.asm, v.err = verify(cand)
	}(s.verify)
	for len(s.inflight) > 0 && (len(s.inflight) >= s.workers || len(s.verified)+len(s.inflight) >= s.pool) {
		s.applyOldest()
	}
	if s.raw >= s.rawBudget {
		s.stopped = true
	}
}

// applyOldest waits for the oldest candidate in flight and applies its
// result: a verified assembly joins the pool, stopping the search once
// the pool is full, and a failure is noted as a blocker.
func (s *searcher) applyOldest() {
	v := s.inflight[0]
	s.inflight = s.inflight[1:]
	<-v.done
	if v.err != nil {
		s.noteBlocker(v.err)
		return
	}
	s.verified = append(s.verified, v.asm)
	if len(s.verified) >= s.pool {
		s.stopped = true
	}
}

// settle applies every emitted candidate's result.
func (s *searcher) settle() {
	for len(s.inflight) > 0 {
		s.applyOldest()
	}
}

// buildCandidate renders the current wiring as a compound lang.Unit
// (name left blank for the verifier) plus its canonical dedup key.
func (s *searcher) buildCandidate() *candidate {
	locals := map[ref]string{}
	for goalLocal, r := range s.goalWire {
		locals[r] = goalLocal
	}
	for i, n := range s.insts {
		for _, exp := range n.unit.Exports {
			r := ref{idx: i, export: exp.Local}
			if locals[r] == "" {
				locals[r] = fmt.Sprintf("x%d_%s", i, exp.Local)
			}
		}
	}
	u := &lang.Unit{Exports: append([]lang.Binding{}, s.goal.Exports...)}
	units := make([]string, len(s.insts))
	occ := map[string]int{}
	tags := make([]string, len(s.insts)) // Unit#occurrence, for the key
	for i, n := range s.insts {
		units[i] = n.unit.Name
		tags[i] = fmt.Sprintf("%s#%d", n.unit.Name, occ[n.unit.Name])
		occ[n.unit.Name]++
	}
	var keyLines []string
	for i, n := range s.insts {
		outs := make([]string, len(n.unit.Exports))
		for j, exp := range n.unit.Exports {
			outs[j] = locals[ref{idx: i, export: exp.Local}]
		}
		ins := make([]string, len(n.unit.Imports))
		for j, imp := range n.unit.Imports {
			r := n.wires[imp.Local]
			ins[j] = locals[r]
			keyLines = append(keyLines, fmt.Sprintf("%s.%s<-%s.%s",
				tags[i], imp.Local, tags[r.idx], r.export))
		}
		if len(n.unit.Imports) == 0 {
			keyLines = append(keyLines, tags[i])
		}
		u.Links = append(u.Links, lang.LinkLine{Outs: outs, Unit: n.unit.Name, Ins: ins})
	}
	for _, e := range s.goal.Exports {
		r := s.goalWire[e.Local]
		keyLines = append(keyLines, fmt.Sprintf("goal.%s<-%s.%s", e.Local, tags[r.idx], r.export))
	}
	sort.Strings(keyLines)
	return &candidate{unit: u, units: units, key: strings.Join(keyLines, ";")}
}
