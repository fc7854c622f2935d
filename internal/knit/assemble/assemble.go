package assemble

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"knit/internal/knit/build"
	"knit/internal/knit/constraint"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// Repo is a unit repository the assembler searches: the unit-definition
// files and the virtual source filesystem needed to build whatever it
// wires together (see oskit.Repository for the kit's).
type Repo struct {
	UnitFiles map[string]string
	Sources   link.Sources
}

// Options tunes the search and verification budgets. The zero value
// uses the defaults below.
type Options struct {
	// MaxInstances caps placed unit instances per assembly (default 16;
	// a goal's "limit N" overrides it).
	MaxInstances int
	// MaxPerUnit caps instances of any single unit (default 2) — it
	// bounds the multi-instantiation fan-out without forbidding it.
	MaxPerUnit int
	// RawBudget caps distinct complete wirings the search may emit to
	// the verifier (default 256).
	RawBudget int
	// RankPool is how many verified assemblies to collect for cost
	// ranking before stopping (default 8; Enumerate raises it to K).
	RankPool int
}

const (
	defaultMaxInstances = 16
	defaultMaxPerUnit   = 2
	defaultRawBudget    = 256
	defaultRankPool     = 8
)

// Cost is the predicted price of running an assembly: the flattened
// image's text size plus the cycles its init schedule takes on the
// interpreter's machine model, instruction-fetch stalls included.
type Cost struct {
	TextSize   int64
	InitCycles int64
}

// Score is the ranking key (smaller is better).
func (c Cost) Score() int64 { return c.TextSize + c.InitCycles }

func (c Cost) String() string {
	return fmt.Sprintf("text=%d init=%d score=%d", c.TextSize, c.InitCycles, c.Score())
}

// Assembly is one verified satisfying wiring: its printable .unit
// source, the units it instantiates, its measured cost, and the build
// that verified it (constraint-checked, init run transactionally).
type Assembly struct {
	Goal  *Goal
	Name  string   // generated compound unit's name (build it with Top=Name)
	Units []string // instantiated unit names, in placement order
	Text  string   // .unit source; reparses and rebuilds standalone
	Cost  Cost
	// Result is the verifying build of UnitFiles+Text with Check on.
	Result *build.Result
}

// UnsatError reports that no assembly satisfies the goal, with the most
// informative blocker the exhaustive search encountered.
type UnsatError struct {
	Goal     *Goal
	Explored int // complete candidate wirings examined
	// Violation is the blocking §4 constraint, when one exists.
	Violation *constraint.Violation
	// Reason is the human-readable explanation (always set).
	Reason string
}

func (e *UnsatError) Error() string {
	name := e.Goal.Name
	if name == "" {
		name = "(unnamed)"
	}
	return fmt.Sprintf("assemble: goal %s is unsatisfiable: %s", name, e.Reason)
}

// BudgetError reports that the search budgets ran out before a verified
// assembly was found — unlike UnsatError it is not a proof of
// unsatisfiability.
type BudgetError struct {
	Goal     *Goal
	Explored int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("assemble: search budget exhausted after %d candidates without a verified assembly (raise Options budgets or the goal's limit)", e.Explored)
}

// Assemble searches the repository for the cheapest assembly satisfying
// the goal. On success the returned Assembly has been verified end to
// end: it passed the constraint checker, built through the real
// pipeline, and ran its init schedule transactionally. An unsatisfiable
// goal returns an *UnsatError naming the blocker.
func Assemble(repo Repo, goal *Goal, opts Options) (*Assembly, error) {
	out, err := Enumerate(repo, goal, 1, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Enumerate returns up to k distinct verified assemblies satisfying the
// goal, cheapest first. Fewer than k may exist; zero is an *UnsatError
// (or *BudgetError when the search was truncated by a budget).
//
// Candidates are verified on runtime.GOMAXPROCS(0) goroutines while the
// search goes on, and their results are applied in the order the search
// emitted them, so the assemblies and errors returned are exactly those
// of verifying one candidate at a time. Enumerate returns once every
// verification it started has ended.
func Enumerate(repo Repo, goal *Goal, k int, opts Options) ([]*Assembly, error) {
	return enumerate(repo, goal, k, opts, runtime.GOMAXPROCS(0))
}

// enumerate is Enumerate verifying at most workers candidates at once.
func enumerate(repo Repo, goal *Goal, k int, opts Options, workers int) ([]*Assembly, error) {
	if k < 1 {
		return nil, fmt.Errorf("assemble: k must be positive, got %d", k)
	}
	if opts.MaxInstances <= 0 {
		opts.MaxInstances = defaultMaxInstances
	}
	if goal.Limit > 0 {
		opts.MaxInstances = goal.Limit
	}
	if opts.MaxPerUnit <= 0 {
		opts.MaxPerUnit = defaultMaxPerUnit
	}
	if opts.RawBudget <= 0 {
		opts.RawBudget = defaultRawBudget
	}
	if opts.RankPool <= 0 {
		opts.RankPool = defaultRankPool
	}
	pool := opts.RankPool
	if k > pool {
		pool = k
	}

	// One cache serves the whole call: the repository's unit files are
	// parsed here and its sources by the first verify build, and every
	// later candidate build parses only its own assembly unit.
	cache := build.NewCache()
	files, err := cache.FrontEnd().ParseUnitFiles(repo.UnitFiles)
	if err != nil {
		return nil, err
	}
	reg, err := link.NewRegistry(files...)
	if err != nil {
		return nil, err
	}
	if err := validateGoal(reg, goal); err != nil {
		return nil, err
	}

	name := assemblyName(reg, goal)
	s := newSearcher(reg, goal, opts.MaxInstances, opts.MaxPerUnit, opts.RawBudget, pool, workers,
		func(cand *candidate) (*Assembly, error) {
			return verify(repo, goal, name, cand, cache)
		})
	s.run()

	verified := s.verified
	if len(verified) == 0 {
		if s.exhausted && !s.capped {
			return nil, unsatFrom(goal, s)
		}
		if r := unsatFrom(goal, s); s.exhausted && r.Violation != nil {
			// Every branch died on the same class of blocker even though
			// an instance cap also bit; surface the semantic reason.
			return nil, r
		}
		return nil, &BudgetError{Goal: goal, Explored: s.raw}
	}
	sort.SliceStable(verified, func(i, j int) bool {
		if si, sj := verified[i].Cost.Score(), verified[j].Cost.Score(); si != sj {
			return si < sj
		}
		return verified[i].Text < verified[j].Text
	})
	if len(verified) > k {
		verified = verified[:k]
	}
	return verified, nil
}

// validateGoal rejects goals that reference names the repository does
// not declare — configuration errors, distinct from unsatisfiability.
func validateGoal(reg *link.Registry, goal *Goal) error {
	for _, e := range goal.Exports {
		if _, ok := reg.BundleTypes[e.Type]; !ok {
			return fmt.Errorf("assemble: goal export %q: unknown bundle type %q", e.Local, e.Type)
		}
	}
	locals := map[string]bool{}
	for _, e := range goal.Exports {
		locals[e.Local] = true
	}
	for _, b := range goal.Bounds {
		p, ok := reg.Properties[b.Prop]
		if !ok {
			return fmt.Errorf("assemble: goal bound %s: unknown property %q", b, b.Prop)
		}
		if !hasValue(p, b.Value) {
			return fmt.Errorf("assemble: goal bound %s: property %q has no value %q", b, b.Prop, b.Value)
		}
		if b.Arg != lang.ExportsKeyword && !locals[b.Arg] {
			return fmt.Errorf("assemble: goal bound %s: %q is not a goal export", b, b.Arg)
		}
	}
	for _, u := range append(append([]string{}, goal.Use...), goal.Avoid...) {
		if _, ok := reg.Units[u]; !ok {
			return fmt.Errorf("assemble: goal names unknown unit %q", u)
		}
	}
	if goal.Top != "" {
		if _, ok := reg.Units[goal.Top]; !ok {
			return fmt.Errorf("assemble: goal top: unknown unit %q", goal.Top)
		}
	}
	return nil
}

func hasValue(p *lang.Property, v string) bool {
	for _, pv := range p.Values {
		if pv.Name == v {
			return true
		}
	}
	return false
}

// assemblyName picks a deterministic unit name for the generated
// compound that does not collide with the repository.
func assemblyName(reg *link.Registry, goal *Goal) string {
	base := goal.Name
	if base == "" {
		base = "Assembly"
	}
	name := base
	for i := 2; ; i++ {
		if _, taken := reg.Units[name]; !taken {
			return name
		}
		name = fmt.Sprintf("%s_%d", base, i)
	}
}

// verify round-trips one candidate through the real pipeline: print it,
// build it with the §4 checker on, re-check the goal's bounds against
// the elaborated program, and run its init schedule transactionally on
// a machine with the standard device builtins installed, timing it for
// the cost model. The build's default engine, the interpreter, prices
// every candidate, instruction-fetch stalls included. The machine is
// released for the next candidate's, and the returned Result keeps
// nothing of it. verify owns cand and only reads everything else, so
// candidates verify concurrently on one cache.
func verify(repo Repo, goal *Goal, name string, cand *candidate, cache *build.Cache) (*Assembly, error) {
	cand.unit.Name = name
	text := lang.Print(&lang.File{Units: []*lang.Unit{cand.unit}})
	files := make(map[string]string, len(repo.UnitFiles)+1)
	for k, v := range repo.UnitFiles {
		files[k] = v
	}
	files["__assembly.unit"] = text
	res, err := build.Build(build.Options{
		Top:       name,
		UnitFiles: files,
		Sources:   repo.Sources,
		Check:     true,
		Cache:     cache,
	})
	if err != nil {
		return nil, err
	}

	// The builder's Check covers the units' own constraints; the goal's
	// bounds are external, so impose them on the elaborated endpoints.
	var bounds []constraint.Bound
	for _, b := range goal.Bounds {
		for _, e := range goal.Exports {
			if b.Arg != e.Local && b.Arg != lang.ExportsKeyword {
				continue
			}
			w, ok := res.Program.Exports[e.Local]
			if !ok {
				return nil, fmt.Errorf("assemble: built assembly lost export %q", e.Local)
			}
			bounds = append(bounds, constraint.Bound{
				Var:   constraint.Var{Inst: w.Provider, Bundle: w.Bundle, Prop: b.Prop},
				Op:    b.Op,
				Value: b.Value,
			})
		}
	}
	if len(bounds) > 0 {
		if _, err := constraint.CheckAssembly(res.Program.Registry, res.Program.SortedInstances(), bounds); err != nil {
			return nil, err
		}
	}
	// Defense in depth: nothing forbidden may survive elaboration.
	for _, inst := range res.Program.Instances {
		for _, av := range goal.Avoid {
			if inst.Unit.Name == av {
				return nil, fmt.Errorf("assemble: forbidden unit %q reached the elaborated program", av)
			}
		}
	}

	cycles, err := initCycles(res)
	if err != nil {
		return nil, fmt.Errorf("assemble: candidate init failed: %w", err)
	}
	return &Assembly{
		Goal:   goal,
		Name:   name,
		Units:  append([]string{}, cand.units...),
		Text:   text,
		Cost:   Cost{TextSize: res.Image.TextSize, InitCycles: cycles},
		Result: res,
	}, nil
}

// initCycles runs res's init schedule on a new machine with the
// standard device builtins installed and returns the cycles it took.
// Then res forgets the machine, which releases its memory.
func initCycles(res *build.Result) (int64, error) {
	m := res.NewMachine()
	machine.InstallConsole(m)
	machine.InstallSerial(m)
	machine.InstallStopWatch(m)
	err := res.RunInit(m)
	cycles := m.Cycles
	res.Forget(m)
	return cycles, err
}

// unsatFrom assembles the UnsatError from the search's blocker record,
// preferring a named constraint violation, then a dead demand, then any
// other failure.
func unsatFrom(goal *Goal, s *searcher) *UnsatError {
	e := &UnsatError{Goal: goal, Explored: s.raw}
	switch {
	case s.blk.violation != nil:
		e.Violation = s.blk.violation
		e.Reason = fmt.Sprintf("blocked by constraint: %s", s.blk.violation.Error())
	case s.blk.demand != nil:
		d := s.blk.demand
		switch {
		case d.typ == "":
			e.Reason = fmt.Sprintf("%s is cut by the goal's avoid set (forbidden: %s)",
				d.consumer, strings.Join(d.forbidden, ", "))
		case d.top != "":
			e.Reason = fmt.Sprintf("the fixed top %s exports no bundle of type %s (needed by %s)",
				d.top, d.typ, d.consumer)
		case len(d.forbidden) > 0:
			e.Reason = fmt.Sprintf("no admissible provider of bundle type %s for %s: %s forbidden by the goal's avoid set {%s}",
				d.typ, d.consumer, strings.Join(d.forbidden, ", "), strings.Join(goal.Avoid, ", "))
		default:
			e.Reason = fmt.Sprintf("no unit in the repository exports bundle type %s (needed by %s)", d.typ, d.consumer)
		}
	case s.blk.err != nil:
		e.Reason = s.blk.err.Error()
	default:
		e.Reason = "search space exhausted without a satisfying wiring"
	}
	return e
}
