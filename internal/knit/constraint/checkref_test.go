package constraint

// The solver the checker shipped before orders became bit rows and
// domains bit sets: each order a map of value pairs, each domain a map
// of values, and every check ending in a sorted assignment map. It is
// kept, unchanged but for its names, as the reference CheckAssembly
// must match (FuzzCheck).

import (
	"fmt"
	"sort"
	"strings"

	"knit/internal/diag"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
)

// refPoset is the partially ordered value set of one property.
type refPoset struct {
	Name   string
	Values []string
	leq    map[[2]string]bool
}

// newRefPoset builds the reflexive-transitive order from a property
// declaration.
func newRefPoset(p *lang.Property) (*refPoset, error) {
	ps := &refPoset{Name: p.Name, leq: map[[2]string]bool{}}
	have := map[string]bool{}
	for _, v := range p.Values {
		if have[v.Name] {
			return nil, fmt.Errorf("property %s: value %q redeclared", p.Name, v.Name)
		}
		have[v.Name] = true
		ps.Values = append(ps.Values, v.Name)
		ps.leq[[2]string{v.Name, v.Name}] = true
	}
	for _, v := range p.Values {
		if v.Below == "" {
			continue
		}
		if !have[v.Below] {
			return nil, fmt.Errorf("property %s: %q declared below unknown value %q",
				p.Name, v.Name, v.Below)
		}
		ps.leq[[2]string{v.Name, v.Below}] = true
	}
	// Transitive closure (Floyd–Warshall over the small value set).
	for _, k := range ps.Values {
		for _, i := range ps.Values {
			for _, j := range ps.Values {
				if ps.leq[[2]string{i, k}] && ps.leq[[2]string{k, j}] {
					ps.leq[[2]string{i, j}] = true
				}
			}
		}
	}
	return ps, nil
}

// Leq reports v <= w in the property order.
func (ps *refPoset) Leq(v, w string) bool { return ps.leq[[2]string{v, w}] }

// Has reports whether v is a value of this property.
func (ps *refPoset) Has(v string) bool {
	for _, x := range ps.Values {
		if x == v {
			return true
		}
	}
	return false
}

// refReport summarizes a check.
type refReport struct {
	Vars       int
	Relations  int // relational constraints (var-to-var)
	Narrowings int // value constraints applied
	// Implicit counts propagation constraints added automatically for
	// "property ... propagates" declarations (the §8 extension).
	Implicit int
	// Assignment holds, for each constrained variable, its admissible
	// values after solving (sorted).
	Assignment map[Var][]string
}

// refCheckAssembly validates constraints over an explicit instance set.
// Unlike Check it does not require a fully elaborated program: imports
// whose wires are nil (or have no provider yet) are simply treated as
// unconstrained, so a *partial* assembly can be checked as a search
// extends it — a violation in a partial wiring is final (adding more
// wires only narrows domains further), which is what lets the
// goal-directed assembler prune dead branches early instead of
// validating only complete candidates. The optional bounds impose
// additional value constraints (an assembly goal's property bounds) on
// endpoints of the configuration.
func refCheckAssembly(reg *link.Registry, instances []*link.Instance, bounds []Bound) (*refReport, error) {
	posets := map[string]*refPoset{}
	for name, p := range reg.Properties {
		ps, err := newRefPoset(p)
		if err != nil {
			return nil, err
		}
		posets[name] = ps
	}

	type rel struct {
		a, b Var // a <= b
	}
	domains := map[Var]map[string]bool{}
	var rels []rel
	report := &refReport{Assignment: map[Var][]string{}}

	domainOf := func(v Var) map[string]bool {
		if d, ok := domains[v]; ok {
			return d
		}
		d := map[string]bool{}
		for _, val := range posets[v.Prop].Values {
			d[val] = true
		}
		domains[v] = d
		return d
	}

	// expand resolves a constraint argument to variables. "imports" and
	// "exports" expand to every import/export bundle of the instance.
	expand := func(inst *link.Instance, prop, arg string) ([]Var, error) {
		switch arg {
		case lang.ImportsKeyword:
			var out []Var
			for _, b := range inst.Unit.Imports {
				out = append(out, Var{inst, b.Local, prop})
			}
			return out, nil
		case lang.ExportsKeyword:
			var out []Var
			for _, b := range inst.Unit.Exports {
				out = append(out, Var{inst, b.Local, prop})
			}
			return out, nil
		}
		for _, b := range inst.Unit.Imports {
			if b.Local == arg {
				return []Var{{inst, arg, prop}}, nil
			}
		}
		for _, b := range inst.Unit.Exports {
			if b.Local == arg {
				return []Var{{inst, arg, prop}}, nil
			}
		}
		return nil, fmt.Errorf("%s: constraint names unknown bundle %q", inst.Path, arg)
	}

	// Gather constraints from every instance.
	explicit := map[*link.Instance]map[string]bool{}
	for _, inst := range instances {
		for _, c := range inst.Unit.Constraints {
			prop := c.LHS.Prop
			if prop == "" {
				prop = c.RHS.Prop
			}
			if explicit[inst] == nil {
				explicit[inst] = map[string]bool{}
			}
			explicit[inst][prop] = true
		}
	}
	for _, inst := range instances {
		for _, c := range inst.Unit.Constraints {
			prop := c.LHS.Prop
			if prop == "" {
				prop = c.RHS.Prop
			}
			ps, ok := posets[prop]
			if !ok {
				return nil, diag.Errorf(c.Pos, "%s: unknown property %q", inst.Path, prop)
			}
			lvars, err := refExpandRef(expand, inst, c.LHS, prop)
			if err != nil {
				return nil, &diag.Error{Pos: c.Pos, Err: err}
			}
			rvars, err := refExpandRef(expand, inst, c.RHS, prop)
			if err != nil {
				return nil, &diag.Error{Pos: c.Pos, Err: err}
			}
			// Value forms narrow domains directly; var-var forms are
			// relational.
			switch {
			case c.RHS.IsValue():
				if !ps.Has(c.RHS.Value) {
					return nil, diag.Errorf(c.Pos, "%s: %q is not a value of property %s",
						inst.Path, c.RHS.Value, prop)
				}
				for _, v := range lvars {
					refNarrow(domainOf(v), ps, c.Op, c.RHS.Value)
					report.Narrowings++
					if len(domainOf(v)) == 0 {
						return nil, &Violation{Var: v, Reason: fmt.Sprintf(
							"no value satisfies %s %s %s (declared at %s)",
							v, c.Op, c.RHS.Value, c.Pos)}
					}
				}
			case c.LHS.IsValue():
				if !ps.Has(c.LHS.Value) {
					return nil, diag.Errorf(c.Pos, "%s: %q is not a value of property %s",
						inst.Path, c.LHS.Value, prop)
				}
				for _, v := range rvars {
					refNarrow(domainOf(v), ps, refFlip(c.Op), c.LHS.Value)
					report.Narrowings++
					if len(domainOf(v)) == 0 {
						return nil, &Violation{Var: v, Reason: fmt.Sprintf(
							"no value satisfies %s %s %s (declared at %s)",
							c.LHS.Value, c.Op, v, c.Pos)}
					}
				}
			default:
				for _, lv := range lvars {
					for _, rv := range rvars {
						switch c.Op {
						case lang.OpLe:
							rels = append(rels, rel{lv, rv})
						case lang.OpGe:
							rels = append(rels, rel{rv, lv})
						case lang.OpEq:
							rels = append(rels, rel{lv, rv}, rel{rv, lv})
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
		ps, ok := posets[bd.Var.Prop]
		if !ok {
			return nil, fmt.Errorf("knit: bound %s: unknown property %q", bd, bd.Var.Prop)
		}
		if !ps.Has(bd.Value) {
			return nil, fmt.Errorf("knit: bound %s: %q is not a value of property %s",
				bd, bd.Value, bd.Var.Prop)
		}
		refNarrow(domainOf(bd.Var), ps, bd.Op, bd.Value)
		report.Narrowings++
		if len(domainOf(bd.Var)) == 0 {
			return nil, &Violation{Var: bd.Var, Reason: fmt.Sprintf(
				"no value satisfies the goal bound %s %s %s", bd.Var, bd.Op, bd.Value)}
		}
	}

	// Implicit propagation (the §8 "reduce repetition" extension): for a
	// property declared "propagates", any unit without explicit
	// constraints on that property behaves as if it declared
	// p(exports) <= p(imports).
	for _, name := range refSortedPropNames(reg) {
		p := reg.Properties[name]
		if !p.Propagates {
			continue
		}
		if _, ok := posets[name]; !ok {
			continue
		}
		for _, inst := range instances {
			if explicit[inst][name] {
				continue
			}
			if len(inst.Unit.Imports) == 0 || len(inst.Unit.Exports) == 0 {
				continue
			}
			for _, exp := range inst.Unit.Exports {
				for _, imp := range inst.Unit.Imports {
					ev := Var{inst, exp.Local, name}
					iv := Var{inst, imp.Local, name}
					domainOf(ev)
					domainOf(iv)
					rels = append(rels, rel{ev, iv})
					report.Implicit++
				}
			}
		}
	}

	// Wiring equates import endpoints with their providers' export
	// endpoints, for every property that is constrained anywhere in the
	// program (so narrowings propagate along arbitrary wiring chains).
	usedProps := map[string]bool{}
	for name, p := range reg.Properties {
		if p.Propagates {
			usedProps[name] = true
		}
	}
	for _, inst := range instances {
		for _, c := range inst.Unit.Constraints {
			if c.LHS.Prop != "" {
				usedProps[c.LHS.Prop] = true
			}
			if c.RHS.Prop != "" {
				usedProps[c.RHS.Prop] = true
			}
		}
	}
	for _, bd := range bounds {
		usedProps[bd.Var.Prop] = true
	}
	// Sorted property order keeps the relation list — and therefore
	// which of several simultaneous violations gets reported — stable
	// across runs.
	propOrder := refKeys(usedProps)
	for _, inst := range instances {
		for _, imp := range inst.Unit.Imports {
			w := inst.ImportWires[imp.Local]
			if w == nil || w.Provider == nil {
				continue
			}
			for _, prop := range propOrder {
				if _, known := posets[prop]; !known {
					continue
				}
				a := Var{inst, imp.Local, prop}
				b := Var{w.Provider, w.Bundle, prop}
				domainOf(a)
				domainOf(b)
				rels = append(rels, rel{a, b}, rel{b, a})
			}
		}
	}

	// AC-3-style fixpoint over the relational constraints.
	changed := true
	for changed {
		changed = false
		for _, r := range rels {
			ps := posets[r.a.Prop]
			da, db := domainOf(r.a), domainOf(r.b)
			// Prune va without any vb >= va.
			for va := range da {
				ok := false
				for vb := range db {
					if ps.Leq(va, vb) {
						ok = true
						break
					}
				}
				if !ok {
					delete(da, va)
					changed = true
				}
			}
			if len(da) == 0 {
				return nil, &Violation{Var: r.a, Reason: fmt.Sprintf(
					"no admissible value: must be <= some value of %s, whose domain is {%s}",
					r.b, strings.Join(refKeys(db), ", "))}
			}
			// Prune vb without any va <= vb.
			for vb := range db {
				ok := false
				for va := range da {
					if ps.Leq(va, vb) {
						ok = true
						break
					}
				}
				if !ok {
					delete(db, vb)
					changed = true
				}
			}
			if len(db) == 0 {
				return nil, &Violation{Var: r.b, Reason: fmt.Sprintf(
					"no admissible value: must be >= some value of %s, whose domain is {%s}",
					r.a, strings.Join(refKeys(da), ", "))}
			}
		}
	}

	report.Vars = len(domains)
	for v, d := range domains {
		report.Assignment[v] = refKeys(d)
	}
	return report, nil
}

func refExpandRef(expand func(*link.Instance, string, string) ([]Var, error),
	inst *link.Instance, r lang.Ref, prop string) ([]Var, error) {
	if r.IsValue() {
		return nil, nil
	}
	if r.Prop != prop {
		return nil, fmt.Errorf("%s: constraint mixes properties %q and %q",
			inst.Path, prop, r.Prop)
	}
	return expand(inst, prop, r.Arg)
}

// refNarrow prunes d to values v with (v op bound).
func refNarrow(d map[string]bool, ps *refPoset, op lang.ConstraintOp, bound string) {
	for v := range d {
		keep := false
		switch op {
		case lang.OpEq:
			keep = v == bound
		case lang.OpLe:
			keep = ps.Leq(v, bound)
		case lang.OpGe:
			keep = ps.Leq(bound, v)
		}
		if !keep {
			delete(d, v)
		}
	}
}

// refFlip mirrors an operator for "value op var" forms.
func refFlip(op lang.ConstraintOp) lang.ConstraintOp {
	switch op {
	case lang.OpLe:
		return lang.OpGe
	case lang.OpGe:
		return lang.OpLe
	}
	return lang.OpEq
}

func refSortedPropNames(reg *link.Registry) []string {
	out := make([]string, 0, len(reg.Properties))
	for name := range reg.Properties {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func refKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
