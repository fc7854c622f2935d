package constraint

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"knit/internal/diag"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
)

// FuzzCheck holds CheckAssembly to the reference solver it replaced
// (checkref_test.go) on generated orders and constraint graphs. Both
// must give the same violation or error text, or the same report and
// the same domain for every variable; when several properties are
// malformed the reference reports whichever its map order meets first,
// so there only refusal is compared.
func FuzzCheck(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{2, 1, 3, 0, 1, 2, 4, 7, 3, 1, 1, 2, 0, 3, 1, 0, 2, 1, 1, 3, 2, 0, 1},
		{0, 0, 4, 1, 0, 2, 1, 9, 3, 2, 2, 2, 1, 1, 0, 1, 0, 2, 0, 1, 2, 3, 3, 1, 2, 1, 0, 0, 2},
		{1, 1, 7, 6, 5, 4, 3, 2, 1, 0, 9, 3, 0, 3, 2, 1, 2, 2, 3, 1, 1, 0, 2, 2, 1, 3, 3, 0, 1, 2, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, insts, bounds := genCheck(data)
		malformed := 0
		for _, p := range reg.Properties {
			ref, refErr := newRefPoset(p)
			ps, err := NewPoset(p)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("property %s: NewPoset error %v, reference %v", p.Name, err, refErr)
			}
			if err != nil {
				malformed++
				continue
			}
			for _, v := range ps.Values {
				for _, w := range ps.Values {
					if ps.Leq(v, w) != ref.Leq(v, w) {
						t.Fatalf("property %s: Leq(%s, %s) = %v, reference %v", p.Name, v, w, ps.Leq(v, w), ref.Leq(v, w))
					}
				}
			}
		}

		want, wantErr := refCheckAssembly(reg, insts, bounds)
		got, err := CheckAssembly(reg, insts, bounds)
		var v, wv *Violation
		switch {
		case malformed > 1:
			if err == nil || wantErr == nil {
				t.Fatalf("%d malformed properties: error %v, reference %v", malformed, err, wantErr)
			}
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() || errors.As(err, &v) != errors.As(wantErr, &wv) {
				t.Fatalf("error %v (%T), reference %v (%T)", err, err, wantErr, wantErr)
			}
		case err != nil:
			t.Fatalf("error %v; the reference passed", err)
		default:
			if got.Vars != want.Vars || got.Relations != want.Relations ||
				got.Narrowings != want.Narrowings || got.Implicit != want.Implicit {
				t.Fatalf("report %d vars %d relations %d narrowings %d implicit, reference %d %d %d %d",
					got.Vars, got.Relations, got.Narrowings, got.Implicit,
					want.Vars, want.Relations, want.Narrowings, want.Implicit)
			}
			for v, dom := range want.Assignment {
				if d := got.Domain(v); !slices.Equal(d, dom) {
					t.Fatalf("domain of %s = %v, reference %v", v, d, dom)
				}
			}
			if d := got.Domain(Var{insts[0], "unconstrained", "q"}); d != nil {
				t.Fatalf("domain of an unconstrained variable = %v, want nil", d)
			}
		}
	})
}

// choices decodes fuzz bytes into bounded choices; past the end of the
// input every choice is 0.
type choices []byte

func (c *choices) n(k int) int {
	if len(*c) == 0 || k <= 1 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % k
}

// rare is true for about one choice in thirty-two: how often the generator
// writes an input error.
func (c *choices) rare() bool { return c.n(32) == 31 }

// genCheck builds a registry of 1–3 properties, each an order of 1–8
// values whose "<" edges may form cycles, and 2–5 instances with
// constraints, wires between them and goal bounds on their exports.
// Now and then a property is malformed or a clause names an unknown
// property, bundle or value.
func genCheck(data []byte) (*link.Registry, []*link.Instance, []Bound) {
	c := choices(data)
	reg := &link.Registry{Properties: map[string]*lang.Property{}}
	// Out of name order, so a compile in name order and one in
	// declaration order differ.
	props := []string{"q", "p", "r"}[:1+c.n(3)]
	for _, name := range props {
		pr := &lang.Property{Name: name, Propagates: c.n(2) == 1}
		nv := 1 + c.n(8)
		for i := 0; i < nv; i++ {
			v := lang.PropValue{Name: fmt.Sprintf("V%d", i)}
			if k := c.n(nv + 2); k < nv {
				v.Below = fmt.Sprintf("V%d", k)
			}
			pr.Values = append(pr.Values, v)
		}
		if c.rare() {
			pr.Values = append(pr.Values, lang.PropValue{Name: "V0"})
		}
		if c.rare() {
			pr.Values[0].Below = "Ghost"
		}
		reg.Properties[name] = pr
	}
	prop := func() string {
		if c.rare() {
			return "ghost"
		}
		return props[c.n(len(props))]
	}
	value := func(prop string) string {
		pr := reg.Properties[prop]
		if pr == nil || c.rare() {
			return "Nope"
		}
		return pr.Values[c.n(len(pr.Values))].Name
	}

	insts := make([]*link.Instance, 2+c.n(4))
	for i := range insts {
		u := &lang.Unit{Name: fmt.Sprintf("U%d", i)}
		for j, n := 0, c.n(3); j < n; j++ {
			u.Imports = append(u.Imports, lang.Binding{Local: fmt.Sprintf("i%d", j)})
		}
		for j, n := 0, 1+c.n(2); j < n; j++ {
			u.Exports = append(u.Exports, lang.Binding{Local: fmt.Sprintf("e%d", j)})
		}
		insts[i] = &link.Instance{ID: i, Path: fmt.Sprintf("K/U%d#%d", i, i), Unit: u,
			ImportWires: map[string]*link.Wire{}}
	}
	ref := func(u *lang.Unit, prop string) lang.Ref {
		args := []string{lang.ImportsKeyword, lang.ExportsKeyword}
		for _, b := range u.Imports {
			args = append(args, b.Local)
		}
		for _, b := range u.Exports {
			args = append(args, b.Local)
		}
		if c.rare() {
			return lang.Ref{Prop: prop, Arg: "ghost"}
		}
		return lang.Ref{Prop: prop, Arg: args[c.n(len(args))]}
	}
	for _, inst := range insts {
		u := inst.Unit
		for k, n := 0, c.n(4); k < n; k++ {
			p := prop()
			con := lang.Constraint{Pos: diag.Pos{File: "t.unit", Line: k + 1, Col: 3},
				Op: lang.ConstraintOp(c.n(3))}
			switch c.n(3) {
			case 0:
				con.LHS, con.RHS = ref(u, p), lang.Ref{Value: value(p)}
			case 1:
				con.LHS, con.RHS = lang.Ref{Value: value(p)}, ref(u, p)
			default:
				q := p
				if c.rare() {
					q = prop()
				}
				con.LHS, con.RHS = ref(u, p), ref(u, q)
			}
			u.Constraints = append(u.Constraints, con)
		}
		for _, imp := range u.Imports {
			switch c.n(4) {
			case 0: // unwired
			case 1:
				inst.ImportWires[imp.Local] = &link.Wire{} // no provider yet
			default:
				p := insts[c.n(len(insts))]
				exp := p.Unit.Exports[c.n(len(p.Unit.Exports))]
				inst.ImportWires[imp.Local] = &link.Wire{Provider: p, Bundle: exp.Local}
			}
		}
	}

	var bounds []Bound
	for k, n := 0, c.n(3); k < n; k++ {
		inst := insts[c.n(len(insts))]
		exp := inst.Unit.Exports[c.n(len(inst.Unit.Exports))]
		p := prop()
		bounds = append(bounds, Bound{Var: Var{inst, exp.Local, p},
			Op: lang.ConstraintOp(c.n(3)), Value: value(p)})
	}
	return reg, insts, bounds
}
