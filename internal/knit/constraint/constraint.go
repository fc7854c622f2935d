// Package constraint implements Knit's architectural constraint checker
// (paper §4): user-defined properties with partially ordered values,
// annotations on unit imports and exports, and a fixpoint solver that
// detects impossible component compositions — e.g. code that may execute
// without a process context calling code that requires one.
//
// Variables are (instance, bundle) endpoints per property. Wiring an
// import to an export equates the two endpoints. Constraints narrow each
// variable's set of admissible values; an empty set is a composition
// error, reported at the variable with the clause or relation that
// emptied it.
//
// A property's values are bit positions, so a domain is one uint64 and
// every narrowing is a mask operation.
package constraint

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"knit/internal/diag"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
)

// maxValues is the most values a property may declare: a domain is one
// uint64 with a bit per value.
const maxValues = 64

// Poset is the partially ordered value set of one property. Values[i]
// is bit i, and up[i] holds every value >= Values[i].
type Poset struct {
	Name   string
	Values []string
	up     []uint64
}

// NewPoset builds the reflexive-transitive order from a property
// declaration.
func NewPoset(p *lang.Property) (*Poset, error) {
	if len(p.Values) > maxValues {
		return nil, diag.Errorf(p.Pos, "property %s: %d values, at most %d are supported",
			p.Name, len(p.Values), maxValues)
	}
	ps := &Poset{Name: p.Name}
	for i, v := range p.Values {
		if ps.index(v.Name) >= 0 {
			return nil, diag.Errorf(v.Pos, "property %s: value %q redeclared", p.Name, v.Name)
		}
		ps.Values = append(ps.Values, v.Name)
		ps.up = append(ps.up, 1<<i)
	}
	for i, v := range p.Values {
		if v.Below == "" {
			continue
		}
		j := ps.index(v.Below)
		if j < 0 {
			return nil, diag.Errorf(v.Pos, "property %s: %q declared below unknown value %q",
				p.Name, v.Name, v.Below)
		}
		ps.up[i] |= 1 << j
	}
	// Transitive closure: Warshall over the bit rows.
	for k := range ps.up {
		for i := range ps.up {
			if ps.up[i]&(1<<k) != 0 {
				ps.up[i] |= ps.up[k]
			}
		}
	}
	return ps, nil
}

// index is v's bit position, or -1 when v is not a value.
func (ps *Poset) index(v string) int {
	for i, x := range ps.Values {
		if x == v {
			return i
		}
	}
	return -1
}

// Leq reports v <= w in the property order.
func (ps *Poset) Leq(v, w string) bool {
	i, j := ps.index(v), ps.index(w)
	return i >= 0 && j >= 0 && ps.up[i]&(1<<j) != 0
}

// all is the domain holding every value.
func (ps *Poset) all() uint64 { return 1<<len(ps.Values) - 1 }

// below is the set of values <= some value in m.
func (ps *Poset) below(m uint64) uint64 {
	var out uint64
	for i, up := range ps.up {
		if up&m != 0 {
			out |= 1 << i
		}
	}
	return out
}

// above is the set of values >= some value in m.
func (ps *Poset) above(m uint64) uint64 {
	var out uint64
	for ; m != 0; m &= m - 1 {
		out |= ps.up[bits.TrailingZeros64(m)]
	}
	return out
}

// admits is the set of values v with (v op Values[b]).
func (ps *Poset) admits(op lang.ConstraintOp, b int) uint64 {
	switch op {
	case lang.OpLe:
		return ps.below(1 << b)
	case lang.OpGe:
		return ps.up[b]
	}
	return 1 << b
}

// names lists the values in m, sorted.
func (ps *Poset) names(m uint64) []string {
	var out []string
	for ; m != 0; m &= m - 1 {
		out = append(out, ps.Values[bits.TrailingZeros64(m)])
	}
	sort.Strings(out)
	return out
}

// Var identifies a constraint variable: one bundle endpoint of an
// instance under one property.
type Var struct {
	Inst   *link.Instance
	Bundle string
	Prop   string
}

func (v Var) String() string {
	return fmt.Sprintf("%s(%s.%s)", v.Prop, v.Inst.Path, v.Bundle)
}

// Violation describes a constraint failure.
type Violation struct {
	Var    Var
	Reason string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("knit: constraint violation at %s: %s", v.Var, v.Reason)
}

// Bound is a value constraint imposed from outside the unit language —
// an assembly goal's "context(out) <= NoContext" — on one endpoint of a
// candidate configuration. CheckAssembly narrows the endpoint's domain
// with it exactly as if the owning unit had declared the clause itself.
type Bound struct {
	Var   Var
	Op    lang.ConstraintOp
	Value string
}

func (b Bound) String() string {
	return fmt.Sprintf("%s %s %s", b.Var, b.Op, b.Value)
}

// Report summarizes a check.
type Report struct {
	Vars       int
	Relations  int // relational constraints (var-to-var)
	Narrowings int // value constraints applied
	// Implicit counts propagation constraints added automatically for
	// "property ... propagates" declarations (the §8 extension).
	Implicit int

	index map[Var]int // dense variable numbers
	dom   []uint64    // each variable's admissible values
	of    []*Poset    // each variable's property
}

// Domain returns v's admissible values after solving, sorted, or nil
// when no constraint reaches v.
func (r *Report) Domain(v Var) []string {
	i, ok := r.index[v]
	if !ok {
		return nil
	}
	return r.of[i].names(r.dom[i])
}

// Check validates every constraint in the program. It returns a Report
// on success and a *Violation error on failure.
func Check(prog *link.Program) (*Report, error) {
	return CheckAssembly(prog.Registry, prog.SortedInstances(), nil)
}

// CheckAssembly validates constraints over an explicit instance set.
// Unlike Check it does not require a fully elaborated program: imports
// whose wires are nil (or have no provider yet) are simply treated as
// unconstrained, so a *partial* assembly can be checked as a search
// extends it — a violation in a partial wiring is final (adding more
// wires only narrows domains further), which is what lets the
// goal-directed assembler prune dead branches early instead of
// validating only complete candidates. The optional bounds impose
// additional value constraints (an assembly goal's property bounds) on
// endpoints of the configuration.
func CheckAssembly(reg *link.Registry, instances []*link.Instance, bounds []Bound) (*Report, error) {
	// Orders compile in name order, so of several malformed properties
	// the same one is reported on every run.
	names := sortedPropNames(reg)
	posets := make([]*Poset, len(names))
	byName := make(map[string]int, len(names))
	for p, name := range names {
		ps, err := NewPoset(reg.Properties[name])
		if err != nil {
			return nil, err
		}
		posets[p], byName[name] = ps, p
	}

	report := &Report{index: map[Var]int{}}
	var vars []Var
	varOf := func(v Var, ps *Poset) int {
		i, ok := report.index[v]
		if !ok {
			i = len(vars)
			report.index[v] = i
			vars = append(vars, v)
			report.dom = append(report.dom, ps.all())
			report.of = append(report.of, ps)
		}
		return i
	}
	// narrow keeps v's values in keep and reports whether any remain.
	narrow := func(v Var, ps *Poset, keep uint64) bool {
		i := varOf(v, ps)
		report.dom[i] &= keep
		report.Narrowings++
		return report.dom[i] != 0
	}
	type rel struct{ a, b int } // a <= b
	var rels []rel

	// One pass over the instances' constraints applies each clause and
	// records which properties each instance constrains itself
	// (explicit, indexed instance-major) and which are constrained
	// anywhere (used).
	explicit := make([]bool, len(instances)*len(names))
	used := make([]bool, len(names))
	for i, inst := range instances {
		for _, c := range inst.Unit.Constraints {
			prop := c.LHS.Prop
			if prop == "" {
				prop = c.RHS.Prop
			}
			p, ok := byName[prop]
			if !ok {
				return nil, diag.Errorf(c.Pos, "%s: unknown property %q", inst.Path, prop)
			}
			ps := posets[p]
			explicit[i*len(names)+p], used[p] = true, true
			lvars, err := expandRef(inst, c.LHS, prop)
			if err != nil {
				return nil, &diag.Error{Pos: c.Pos, Err: err}
			}
			rvars, err := expandRef(inst, c.RHS, prop)
			if err != nil {
				return nil, &diag.Error{Pos: c.Pos, Err: err}
			}
			// Value forms narrow domains directly; var-var forms are
			// relational.
			switch {
			case c.RHS.IsValue():
				b := ps.index(c.RHS.Value)
				if b < 0 {
					return nil, diag.Errorf(c.Pos, "%s: %q is not a value of property %s",
						inst.Path, c.RHS.Value, prop)
				}
				for _, v := range lvars {
					if !narrow(v, ps, ps.admits(c.Op, b)) {
						return nil, &Violation{Var: v, Reason: fmt.Sprintf(
							"no value satisfies %s %s %s (declared at %s)",
							v, c.Op, c.RHS.Value, c.Pos)}
					}
				}
			case c.LHS.IsValue():
				b := ps.index(c.LHS.Value)
				if b < 0 {
					return nil, diag.Errorf(c.Pos, "%s: %q is not a value of property %s",
						inst.Path, c.LHS.Value, prop)
				}
				for _, v := range rvars {
					if !narrow(v, ps, ps.admits(flip(c.Op), b)) {
						return nil, &Violation{Var: v, Reason: fmt.Sprintf(
							"no value satisfies %s %s %s (declared at %s)",
							c.LHS.Value, c.Op, v, c.Pos)}
					}
				}
			default:
				for _, lv := range lvars {
					for _, rv := range rvars {
						a, b := varOf(lv, ps), varOf(rv, ps)
						switch c.Op {
						case lang.OpLe:
							rels = append(rels, rel{a, b})
						case lang.OpGe:
							rels = append(rels, rel{b, a})
						case lang.OpEq:
							rels = append(rels, rel{a, b}, rel{b, a})
						}
						report.Relations++
					}
				}
			}
		}
	}

	// External bounds (assembly goals) narrow their endpoint's domain
	// like a declared value constraint would.
	for _, bd := range bounds {
		p, ok := byName[bd.Var.Prop]
		if !ok {
			return nil, fmt.Errorf("knit: bound %s: unknown property %q", bd, bd.Var.Prop)
		}
		ps := posets[p]
		b := ps.index(bd.Value)
		if b < 0 {
			return nil, fmt.Errorf("knit: bound %s: %q is not a value of property %s",
				bd, bd.Value, bd.Var.Prop)
		}
		used[p] = true
		if !narrow(bd.Var, ps, ps.admits(bd.Op, b)) {
			return nil, &Violation{Var: bd.Var, Reason: fmt.Sprintf(
				"no value satisfies the goal bound %s %s %s", bd.Var, bd.Op, bd.Value)}
		}
	}

	// Implicit propagation (the §8 "reduce repetition" extension): for a
	// property declared "propagates", any unit without explicit
	// constraints on that property behaves as if it declared
	// p(exports) <= p(imports).
	for p, ps := range posets {
		if !reg.Properties[ps.Name].Propagates {
			continue
		}
		used[p] = true
		for i, inst := range instances {
			if explicit[i*len(names)+p] {
				continue
			}
			for _, exp := range inst.Unit.Exports {
				for _, imp := range inst.Unit.Imports {
					rels = append(rels, rel{
						varOf(Var{inst, exp.Local, ps.Name}, ps),
						varOf(Var{inst, imp.Local, ps.Name}, ps)})
					report.Implicit++
				}
			}
		}
	}

	// Wiring equates import endpoints with their providers' export
	// endpoints, for every property that is constrained anywhere in the
	// program (so narrowings propagate along arbitrary wiring chains).
	// Sorted property order keeps the relation list — and therefore
	// which of several simultaneous violations gets reported — stable
	// across runs.
	for _, inst := range instances {
		for _, imp := range inst.Unit.Imports {
			w := inst.ImportWires[imp.Local]
			if w == nil || w.Provider == nil {
				continue
			}
			for p, ps := range posets {
				if !used[p] {
					continue
				}
				a := varOf(Var{inst, imp.Local, ps.Name}, ps)
				b := varOf(Var{w.Provider, w.Bundle, ps.Name}, ps)
				rels = append(rels, rel{a, b}, rel{b, a})
			}
		}
	}

	// AC-3-style fixpoint over the relational constraints: each sweep
	// keeps the values of a under some value of b, then the values of b
	// over some kept value of a, until a sweep changes nothing.
	dom := report.dom
	for changed := true; changed; {
		changed = false
		for _, r := range rels {
			ps := report.of[r.a]
			da, db := dom[r.a], dom[r.b]
			na := da & ps.below(db)
			if na == 0 {
				return nil, &Violation{Var: vars[r.a], Reason: fmt.Sprintf(
					"no admissible value: must be <= some value of %s, whose domain is {%s}",
					vars[r.b], strings.Join(ps.names(db), ", "))}
			}
			dom[r.a] = na
			nb := db & ps.above(na)
			if nb == 0 {
				return nil, &Violation{Var: vars[r.b], Reason: fmt.Sprintf(
					"no admissible value: must be >= some value of %s, whose domain is {%s}",
					vars[r.a], strings.Join(ps.names(na), ", "))}
			}
			dom[r.b] = nb
			changed = changed || na != da || nb != db
		}
	}

	report.Vars = len(vars)
	return report, nil
}

// expandRef resolves a constraint operand to variables: none for a
// value, and for prop(arg) the named bundle, or every import or export
// bundle of the instance for the "imports" and "exports" keywords.
func expandRef(inst *link.Instance, r lang.Ref, prop string) ([]Var, error) {
	if r.IsValue() {
		return nil, nil
	}
	if r.Prop != prop {
		return nil, fmt.Errorf("%s: constraint mixes properties %q and %q",
			inst.Path, prop, r.Prop)
	}
	var out []Var
	switch r.Arg {
	case lang.ImportsKeyword:
		for _, b := range inst.Unit.Imports {
			out = append(out, Var{inst, b.Local, prop})
		}
		return out, nil
	case lang.ExportsKeyword:
		for _, b := range inst.Unit.Exports {
			out = append(out, Var{inst, b.Local, prop})
		}
		return out, nil
	}
	for _, b := range inst.Unit.Imports {
		if b.Local == r.Arg {
			return []Var{{inst, r.Arg, prop}}, nil
		}
	}
	for _, b := range inst.Unit.Exports {
		if b.Local == r.Arg {
			return []Var{{inst, r.Arg, prop}}, nil
		}
	}
	return nil, fmt.Errorf("%s: constraint names unknown bundle %q", inst.Path, r.Arg)
}

// flip mirrors an operator for "value op var" forms.
func flip(op lang.ConstraintOp) lang.ConstraintOp {
	switch op {
	case lang.OpLe:
		return lang.OpGe
	case lang.OpGe:
		return lang.OpLe
	}
	return lang.OpEq
}

func sortedPropNames(reg *link.Registry) []string {
	out := make([]string, 0, len(reg.Properties))
	for name := range reg.Properties {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
