package constraint

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"knit/internal/diag/diagtest"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
)

func elabProgram(t *testing.T, units, top string, sources link.Sources) *link.Program {
	t.Helper()
	f, err := lang.Parse("t.unit", units)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	reg, err := link.NewRegistry(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := link.Elaborate(reg, top, sources, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return p
}

// contextHeader declares the paper's §4 running property.
const contextHeader = `
property context
type NoContext
type ProcessContext < NoContext
`

// TestPaperContextViolation builds the paper's example error: code that
// may run without a process context (an interrupt path) calling code
// that requires a process context (a blocking lock).
func TestPaperContextViolation(t *testing.T) {
	units := contextHeader + `
bundletype Lock = { lock_acquire }
bundletype Irq = { irq_handle }

unit BlockingLock = {
  exports [ lock : Lock ];
  files { "lock.c" };
  constraints {
    context(lock) = ProcessContext;
  };
}
unit IrqHandler = {
  imports [ lock : Lock ];
  exports [ irq : Irq ];
  files { "irq.c" };
  constraints {
    context(irq) = NoContext;
    context(exports) <= context(imports);
  };
}
unit Kernel = {
  exports [ irq : Irq ];
  link {
    [lock] <- BlockingLock <- [];
    [irq] <- IrqHandler <- [lock];
  };
}
`
	sources := link.Sources{
		"lock.c": `int lock_acquire(void) { return 1; }`,
		"irq.c":  `int lock_acquire(void); int irq_handle(int n) { return lock_acquire(); }`,
	}
	p := elabProgram(t, units, "Kernel", sources)
	_, err := Check(p)
	if err == nil {
		t.Fatal("expected a context violation")
	}
	if _, ok := err.(*Violation); !ok {
		t.Fatalf("err = %T %v, want *Violation", err, err)
	}
	if !strings.Contains(err.Error(), "context") {
		t.Errorf("violation should mention the property: %v", err)
	}
}

// TestPaperContextOK: the same composition with a spinning (NoContext)
// lock passes.
func TestPaperContextOK(t *testing.T) {
	units := contextHeader + `
bundletype Lock = { lock_acquire }
bundletype Irq = { irq_handle }

unit SpinLock = {
  exports [ lock : Lock ];
  files { "lock.c" };
  constraints {
    context(lock) = NoContext;
  };
}
unit IrqHandler = {
  imports [ lock : Lock ];
  exports [ irq : Irq ];
  files { "irq.c" };
  constraints {
    context(irq) = NoContext;
    context(exports) <= context(imports);
  };
}
unit Kernel = {
  exports [ irq : Irq ];
  link {
    [lock] <- SpinLock <- [];
    [irq] <- IrqHandler <- [lock];
  };
}
`
	sources := link.Sources{
		"lock.c": `int lock_acquire(void) { return 1; }`,
		"irq.c":  `int lock_acquire(void); int irq_handle(int n) { return lock_acquire(); }`,
	}
	p := elabProgram(t, units, "Kernel", sources)
	report, err := Check(p)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if report.Vars == 0 {
		t.Error("report should count constrained variables")
	}
}

// TestPropagationChain: a pure-propagation middle unit (the 70% case in
// the paper's census) transmits a requirement across several hops.
func TestPropagationChain(t *testing.T) {
	units := contextHeader + `
bundletype A = { fa }
bundletype B = { fb }
bundletype C = { fc }

unit Bottom = {
  exports [ a : A ];
  files { "a.c" };
  constraints { context(a) = ProcessContext; };
}
unit Mid = {
  imports [ a : A ];
  exports [ b : B ];
  files { "b.c" };
  constraints { context(exports) <= context(imports); };
}
unit TopU = {
  imports [ b : B ];
  exports [ c : C ];
  files { "c.c" };
  constraints {
    context(c) = NoContext;
    context(exports) <= context(imports);
  };
}
unit K = {
  exports [ c : C ];
  link {
    [a] <- Bottom <- [];
    [b] <- Mid <- [a];
    [c] <- TopU <- [b];
  };
}
`
	sources := link.Sources{
		"a.c": `int fa(void) { return 1; }`,
		"b.c": `int fa(void); int fb(void) { return fa(); }`,
		"c.c": `int fb(void); int fc(void) { return fb(); }`,
	}
	p := elabProgram(t, units, "K", sources)
	if _, err := Check(p); err == nil {
		t.Fatal("requirement must propagate through the pure-propagation unit and conflict")
	}
}

// TestPropagatesExtension covers the §8 "reduce repetition" extension:
// with "property context propagates", the pure-propagation middle units
// need no annotations at all, yet requirements still flow end to end.
func TestPropagatesExtension(t *testing.T) {
	units := `
property context propagates
type NoContext
type ProcessContext < NoContext

bundletype A = { fa }
bundletype B = { fb }
bundletype C = { fc }

unit Bottom = {
  exports [ a : A ];
  files { "a.c" };
  constraints { context(a) = ProcessContext; };
}
// No constraints on Mid at all: propagation is implicit.
unit Mid = {
  imports [ a : A ];
  exports [ b : B ];
  files { "b.c" };
}
// A unit with explicit constraints states its complete story (no
// implicit clause is added), so the endpoint declares its propagation.
unit TopU = {
  imports [ b : B ];
  exports [ c : C ];
  files { "c.c" };
  constraints {
    context(c) = NoContext;
    context(exports) <= context(imports);
  };
}
unit K = {
  exports [ c : C ];
  link {
    [a] <- Bottom <- [];
    [b] <- Mid <- [a];
    [c] <- TopU <- [b];
  };
}
`
	sources := link.Sources{
		"a.c": `int fa(void) { return 1; }`,
		"b.c": `int fa(void); int fb(void) { return fa(); }`,
		"c.c": `int fb(void); int fc(void) { return fb(); }`,
	}
	p := elabProgram(t, units, "K", sources)
	_, err := Check(p)
	if err == nil {
		t.Fatal("conflict must propagate through the unannotated middle unit")
	}
	if _, ok := err.(*Violation); !ok {
		t.Fatalf("err = %T %v", err, err)
	}

	// Same chain without the conflicting top requirement: passes, and
	// the report records the implicit constraints.
	ok := strings.Replace(units, "context(c) = NoContext;", "", 1)
	p2 := elabProgram(t, ok, "K", sources)
	report, err := Check(p2)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if report.Implicit == 0 {
		t.Error("report should count implicit propagation constraints")
	}
}

// TestPropagatesRespectsExplicitConstraints: a unit with its own
// constraints on the property keeps only those (no implicit clause).
func TestPropagatesRespectsExplicitConstraints(t *testing.T) {
	units := `
property context propagates
type NoContext
type ProcessContext < NoContext

bundletype A = { fa }
bundletype B = { fb }

unit Bottom = {
  exports [ a : A ];
  files { "a.c" };
  constraints { context(a) = ProcessContext; };
}
// Explicitly severs the propagation: its export works in any context
// regardless of its import (say, it defers the import's work to a queue).
unit Decouple = {
  imports [ a : A ];
  exports [ b : B ];
  files { "b.c" };
  constraints { context(b) = NoContext; };
}
unit K = {
  exports [ b : B ];
  link {
    [a] <- Bottom <- [];
    [b] <- Decouple <- [a];
  };
}
`
	sources := link.Sources{
		"a.c": `int fa(void) { return 1; }`,
		"b.c": `int fa(void); int fb(void) { return fa(); }`,
	}
	p := elabProgram(t, units, "K", sources)
	if _, err := Check(p); err != nil {
		t.Fatalf("explicit constraint should override implicit propagation: %v", err)
	}
}

func TestUnannotatedProgramPasses(t *testing.T) {
	units := `
bundletype A = { fa }
unit P = { exports [ a : A ]; files { "a.c" }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`
	p := elabProgram(t, units, "T", link.Sources{"a.c": `int fa(void) { return 1; }`})
	report, err := Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if report.Vars != 0 || report.Relations != 0 {
		t.Errorf("report = %+v, want empty", report)
	}
}

func TestCheckErrors(t *testing.T) {
	text := func(constraint string) string {
		return contextHeader + `
bundletype A = { fa }
unit P = {
  exports [ a : A ];
  files { "a.c" };
  constraints { ` + constraint + ` };
}
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`
	}
	mk := func(units string) (*link.Program, error) {
		f, err := lang.Parse("t.unit", units)
		if err != nil {
			return nil, err
		}
		reg, err := link.NewRegistry(f)
		if err != nil {
			return nil, err
		}
		return link.Elaborate(reg, "T", link.Sources{"a.c": `int fa(void) { return 1; }`}, nil)
	}
	// pos is where a clause's error points; a Violation (pos "") is not
	// about one clause.
	cases := []struct{ name, constraint, want, pos string }{
		{"unknown property", "ghost(a) = NoContext;", "unknown property", "10:17"},
		{"unknown bundle", "context(ghost) = NoContext;", "unknown bundle", "10:17"},
		{"unknown value", "context(a) = Sideways;", "not a value", "10:17"},
		{"unknown value on the left", "context(a) = NoContext; Sideways = context(a);", "not a value", "10:41"},
		{"contradiction", "context(a) = NoContext; context(a) = ProcessContext;", "no value satisfies", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			units := text(c.constraint)
			p, err := mk(units)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			_, err = Check(p)
			if err == nil {
				t.Fatalf("Check succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			var v *Violation
			if c.pos == "" {
				if !errors.As(err, &v) {
					t.Errorf("error %q is not a *Violation", err)
				}
			} else if got := diagtest.At(t, err, units); got != c.pos {
				t.Errorf("error %q at %s, want %s", err, got, c.pos)
			}
		})
	}
}

// TestPropertyErrors: a malformed property is refused at the offending
// declaration, whether or not a clause uses it.
func TestPropertyErrors(t *testing.T) {
	var many strings.Builder
	many.WriteString("property wide\n")
	for i := 0; i <= maxValues; i++ {
		fmt.Fprintf(&many, "type W%d\n", i)
	}
	cases := []struct{ name, props, want, pos string }{
		{"value redeclared", contextHeader + "type NoContext\n", `value "NoContext" redeclared`, "5:1"},
		{"below unknown value", contextHeader + "type Blocked < Ghost\n", `declared below unknown value "Ghost"`, "5:1"},
		{"too many values", contextHeader + many.String(), "65 values, at most 64", "5:1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			units := c.props + `
bundletype A = { fa }
unit P = { exports [ a : A ]; files { "a.c" }; constraints { context(a) = NoContext; }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`
			p := elabProgram(t, units, "T", link.Sources{"a.c": `int fa(void) { return 1; }`})
			_, err := Check(p)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			if got := diagtest.At(t, err, units); got != c.pos {
				t.Errorf("error %q at %s, want %s", err, got, c.pos)
			}
		})
	}
}

func TestPosetConstruction(t *testing.T) {
	p := &lang.Property{Name: "ctx", Values: []lang.PropValue{
		{Name: "Top"},
		{Name: "Mid", Below: "Top"},
		{Name: "Bot", Below: "Mid"},
		{Name: "Other", Below: "Top"},
	}}
	ps, err := NewPoset(p)
	if err != nil {
		t.Fatal(err)
	}
	// Transitivity.
	if !ps.Leq("Bot", "Top") {
		t.Error("Bot <= Top should hold transitively")
	}
	// Incomparability.
	if ps.Leq("Other", "Mid") || ps.Leq("Mid", "Other") {
		t.Error("Other and Mid should be incomparable")
	}
	// Reflexivity.
	for _, v := range ps.Values {
		if !ps.Leq(v, v) {
			t.Errorf("reflexivity failed for %s", v)
		}
	}
}

func TestPosetErrors(t *testing.T) {
	_, err := NewPoset(&lang.Property{Name: "p", Values: []lang.PropValue{
		{Name: "A"}, {Name: "A"},
	}})
	if err == nil || !strings.Contains(err.Error(), "redeclared") {
		t.Errorf("err = %v", err)
	}
	_, err = NewPoset(&lang.Property{Name: "p", Values: []lang.PropValue{
		{Name: "A", Below: "Ghost"},
	}})
	if err == nil || !strings.Contains(err.Error(), "unknown value") {
		t.Errorf("err = %v", err)
	}
}

// TestQuickPosetPartialOrderAxioms: for random chains-with-branches, Leq
// is reflexive, transitive, and antisymmetric.
func TestQuickPosetPartialOrderAxioms(t *testing.T) {
	fn := func(edges [6]uint8) bool {
		names := []string{"V0", "V1", "V2", "V3", "V4"}
		var vals []lang.PropValue
		for i, n := range names {
			pv := lang.PropValue{Name: n}
			if i > 0 {
				// Each value sits below some earlier value (keeps it acyclic).
				pv.Below = names[int(edges[i])%i]
			}
			vals = append(vals, pv)
		}
		ps, err := NewPoset(&lang.Property{Name: "p", Values: vals})
		if err != nil {
			return false
		}
		for _, a := range names {
			if !ps.Leq(a, a) {
				return false
			}
			for _, b := range names {
				if a != b && ps.Leq(a, b) && ps.Leq(b, a) {
					return false // antisymmetry violated
				}
				for _, c := range names {
					if ps.Leq(a, b) && ps.Leq(b, c) && !ps.Leq(a, c) {
						return false // transitivity violated
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWidestProperty: a property may declare 64 values, one per bit of
// a domain.
func TestWidestProperty(t *testing.T) {
	var units strings.Builder
	units.WriteString("property wide\ntype W0\n")
	for i := 1; i < maxValues; i++ {
		fmt.Fprintf(&units, "type W%d < W%d\n", i, i-1)
	}
	units.WriteString(`
bundletype A = { fa }
unit P = { exports [ a : A ]; files { "a.c" }; constraints { wide(a) <= W62; }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`)
	p := elabProgram(t, units.String(), "T", link.Sources{"a.c": `int fa(void) { return 1; }`})
	report, err := Check(p)
	if err != nil {
		t.Fatal(err)
	}
	a := Var{Inst: p.Exports["a"].Provider, Bundle: "a", Prop: "wide"}
	if got := strings.Join(report.Domain(a), ","); got != "W62,W63" {
		t.Errorf("domain of %s = %s, want W62,W63", a, got)
	}
}
