package link

import (
	"fmt"
	"strings"
	"testing"

	"knit/internal/knit/lang"
)

func elabTest(t *testing.T, units, top string, sources Sources) (*Program, error) {
	t.Helper()
	f, err := lang.Parse("test.unit", units)
	if err != nil {
		t.Fatalf("parse units: %v", err)
	}
	reg, err := NewRegistry(f)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	return Elaborate(reg, top, sources, nil)
}

func mustElab(t *testing.T, units, top string, sources Sources) *Program {
	t.Helper()
	p, err := elabTest(t, units, top, sources)
	if err != nil {
		t.Fatalf("Elaborate: %v", err)
	}
	return p
}

const counterUnits = `
bundletype Count = { bump, current }

unit Counter = {
  exports [ count : Count ];
  files { "counter.c" };
}

unit Top = {
  exports [ count : Count ];
  link {
    [count] <- Counter <- [];
  };
}
`

var counterSources = Sources{
	"counter.c": `
static int n = 0;
int bump(void) { n++; return n; }
int current(void) { return n; }
`,
}

func TestElaborateAtomicExports(t *testing.T) {
	p := mustElab(t, counterUnits, "Top", counterSources)
	if len(p.Instances) != 1 {
		t.Fatalf("instances = %d", len(p.Instances))
	}
	inst := p.Instances[0]
	if inst.Unit.Name != "Counter" {
		t.Errorf("instance unit = %s", inst.Unit.Name)
	}
	g, err := p.ExportSymbol("count", "bump")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(g, "bump__k") {
		t.Errorf("global name = %q, want bump__k<N>", g)
	}
	// Hidden static renamed with file suffix.
	found := false
	for _, d := range inst.RenamedFile(0).Decls {
		if strings.HasPrefix(d.DeclName(), "n__k") {
			found = true
		}
	}
	if !found {
		t.Error("static n not instance-renamed")
	}
}

func TestMultipleInstantiationDistinctNames(t *testing.T) {
	units := counterUnits + `
bundletype Pair = { bump_a, bump_b }
unit UsesTwo = {
  imports [ a : Count, b : Count ];
  exports [ pair : Pair ];
  files { "uses.c" };
  rename {
    a.bump to bump_first;
    a.current to cur_first;
    b.bump to bump_second;
    b.current to cur_second;
  };
}
unit TwoCounters = {
  exports [ pair : Pair ];
  link {
    [c1] <- Counter <- [];
    [c2] <- Counter <- [];
    [pair] <- UsesTwo <- [c1, c2];
  };
}
`
	sources := Sources{
		"counter.c": counterSources["counter.c"],
		"uses.c": `
int bump_first(void);
int cur_first(void);
int bump_second(void);
int cur_second(void);
int bump_a(void) { return bump_first(); }
int bump_b(void) { return bump_second(); }
`,
	}
	p := mustElab(t, units, "TwoCounters", sources)
	if len(p.Instances) != 3 {
		t.Fatalf("instances = %d, want 3", len(p.Instances))
	}
	// The two Counter instances export distinct global names.
	var bumps []string
	for _, inst := range p.Instances {
		if inst.Unit.Name == "Counter" {
			bumps = append(bumps, inst.ExportSyms["count"]["bump"])
		}
	}
	if len(bumps) != 2 || bumps[0] == bumps[1] {
		t.Errorf("counter bump names = %v, want two distinct", bumps)
	}
}

func TestCyclicWiring(t *testing.T) {
	// Mutually recursive units: Even imports Odd and vice versa — the
	// cyclic linking the paper says object systems and ld handle poorly
	// but units handle naturally.
	units := `
bundletype EvenB = { is_even }
bundletype OddB = { is_odd }
bundletype Main = { check }

unit Even = {
  imports [ odd : OddB ];
  exports [ even : EvenB ];
  files { "even.c" };
}
unit Odd = {
  imports [ even : EvenB ];
  exports [ odd : OddB ];
  files { "odd.c" };
}
unit Driver = {
  imports [ even : EvenB ];
  exports [ main : Main ];
  files { "drv.c" };
}
unit Top = {
  exports [ main : Main ];
  link {
    [even] <- Even <- [odd];
    [odd] <- Odd <- [even];
    [main] <- Driver <- [even];
  };
}
`
	sources := Sources{
		"even.c": `
int is_odd(int n);
int is_even(int n) {
    if (n == 0) { return 1; }
    return is_odd(n - 1);
}
`,
		"odd.c": `
int is_even(int n);
int is_odd(int n) {
    if (n == 0) { return 0; }
    return is_even(n - 1);
}
`,
		"drv.c": `
int is_even(int n);
int check(int n) { return is_even(n); }
`,
	}
	p := mustElab(t, units, "Top", sources)
	// Even's import wire points at Odd's instance and vice versa.
	var even, odd *Instance
	for _, inst := range p.Instances {
		switch inst.Unit.Name {
		case "Even":
			even = inst
		case "Odd":
			odd = inst
		}
	}
	if even.ImportWires["odd"].Provider != odd {
		t.Error("Even's odd import not wired to Odd")
	}
	if odd.ImportWires["even"].Provider != even {
		t.Error("Odd's even import not wired to Even")
	}
	if got := even.ImportType("odd"); got != "OddB" {
		t.Errorf("ImportType(odd) = %q, want OddB", got)
	}
	if got := even.ImportType("nope"); got != "" {
		t.Errorf("ImportType(nope) = %q, want empty", got)
	}
}

func TestInterpositionExpressible(t *testing.T) {
	// Figure 1(c): with units, interposing a logger between client and
	// server is just different wiring — contrast with
	// ldlink.TestFigure1cInterpositionImpossible.
	units := `
bundletype Serve = { serve }
bundletype Main = { go_ }

unit Server = {
  exports [ s : Serve ];
  files { "server.c" };
}
unit Wrap = {
  imports [ inner : Serve ];
  exports [ outer : Serve ];
  files { "wrap.c" };
  rename {
    inner.serve to serve_inner;
    outer.serve to serve_outer;
  };
}
unit Client = {
  imports [ s : Serve ];
  exports [ m : Main ];
  files { "client.c" };
}
unit Plain = {
  exports [ m : Main ];
  link {
    [s] <- Server <- [];
    [m] <- Client <- [s];
  };
}
unit Wrapped = {
  exports [ m : Main ];
  link {
    [s] <- Server <- [];
    [w] <- Wrap <- [s];
    [m] <- Client <- [w];
  };
}
`
	sources := Sources{
		"server.c": `int serve(int x) { return x + 1; }`,
		"wrap.c": `
int serve_inner(int x);
int serve_outer(int x) { return serve_inner(x) * 10; }
`,
		"client.c": `
int serve(int x);
int go_(int x) { return serve(x); }
`,
	}
	plain := mustElab(t, units, "Plain", sources)
	wrapped := mustElab(t, units, "Wrapped", sources)
	if len(plain.Instances) != 2 || len(wrapped.Instances) != 3 {
		t.Fatalf("instances: plain=%d wrapped=%d", len(plain.Instances), len(wrapped.Instances))
	}
	// In Wrapped, the client's import resolves to the wrapper, whose
	// import resolves to the server.
	var client, wrap, server *Instance
	for _, inst := range wrapped.Instances {
		switch inst.Unit.Name {
		case "Client":
			client = inst
		case "Wrap":
			wrap = inst
		case "Server":
			server = inst
		}
	}
	if client.ImportWires["s"].Provider != wrap {
		t.Error("client not wired to wrapper")
	}
	if wrap.ImportWires["inner"].Provider != server {
		t.Error("wrapper not wired to server")
	}
}

func TestElaborateErrors(t *testing.T) {
	cases := []struct{ name, units, top, want string }{
		{
			"type mismatch",
			`
bundletype A = { f }
bundletype B = { g }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit C = { imports [ b : B ]; exports [ a2 : A ]; files { "c.c" }; }
unit T = { exports [ a2 : A ]; link { [a] <- P <- []; [a2] <- C <- [a]; }; }
`,
			"T", "bundle type",
		},
		{
			"arity out",
			`
bundletype A = { f }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit T = { exports [ a : A ]; link { [a, extra] <- P <- []; }; }
`,
			"T", "exports 1 bundles, link line binds 2",
		},
		{
			"arity in",
			`
bundletype A = { f }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit T = { exports [ a : A ]; link { [a] <- P <- [a]; }; }
`,
			"T", "imports 0 bundles, link line supplies 1",
		},
		{
			"unknown linked unit",
			`
bundletype A = { f }
unit T = { exports [ a : A ]; link { [a] <- Ghost <- []; }; }
`,
			"T", "unknown unit",
		},
		{
			"name bound twice",
			`
bundletype A = { f }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; [a] <- P <- []; }; }
`,
			"T", "bound twice",
		},
		{
			"export not bound",
			`
bundletype A = { f }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit T = { exports [ missing : A ]; link { [a] <- P <- []; }; }
`,
			"T", "not bound in the link section",
		},
		{
			"top with imports",
			`
bundletype A = { f }
unit T = { imports [ a : A ]; exports [ b : A ]; files { "t.c" }; }
`,
			"T", "unsatisfied imports",
		},
		{
			"cident collision",
			`
bundletype A = { f }
unit U = { imports [ x : A, y : A ]; exports [ z : A ]; files { "u.c" }; }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit T = { exports [ z : A ]; link { [a] <- P <- []; [z] <- U <- [a, a]; }; }
`,
			"T", "add a rename",
		},
		{
			"import and export same ident",
			`
bundletype A = { f }
unit W = { imports [ inner : A ]; exports [ outer : A ]; files { "w.c" }; }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit T = { exports [ outer : A ]; link { [a] <- P <- []; [outer] <- W <- [a]; }; }
`,
			"T", "add a rename",
		},
		{
			"rename unknown bundle",
			`
bundletype A = { f }
unit P = { exports [ a : A ]; files { "p.c" }; rename { ghost.f to g; }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`,
			"T", "rename of unknown bundle",
		},
		{
			"rename unknown symbol",
			`
bundletype A = { f }
unit P = { exports [ a : A ]; files { "p.c" }; rename { a.ghost to g; }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`,
			"T", "does not match any bundle symbol",
		},
		{
			"initializer for unknown bundle",
			`
bundletype A = { f }
unit P = { exports [ a : A ]; initializer setup for ghost; files { "p.c" }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`,
			"T", "unknown export bundle",
		},
		{
			"depends bad lhs",
			`
bundletype A = { f }
unit P = { exports [ a : A ]; depends { ghost needs a; }; files { "p.c" }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`,
			"T", "not an import",
		},
		{
			"recursive compound",
			`
bundletype A = { f }
unit T = { exports [ a : A ]; link { [a] <- T <- []; }; }
`,
			"T", "nesting too deep",
		},
	}
	for _, c := range twoBadNames {
		cases = append(cases, struct{ name, units, top, want string }{c.name, c.units, "T", c.want})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := elabTest(t, c.units, c.top, errorSources)
			if err == nil {
				t.Fatalf("Elaborate succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// errorSources are the C files TestElaborateErrors' units name.
var errorSources = Sources{
	"p.c": `int f(void) { return 1; }`,
	"c.c": `int g(void); int f(void) { return g(); }`,
	"t.c": `int f(void) { return 1; }`,
	"u.c": `int f(void) { return 1; }`,
	"w.c": `int f(void) { return 1; }`,
	"calls.c": `int f(void) {
    int beta = 0;
    return alpha() + beta + gamma() + beta();
}`,
	"none.c":  `int h(void) { return 1; }`,
	"fg.c":    `int f(void) { return 1; } int g(void) { return 2; }`,
	"clash.c": "int m(void) { return 0; }\nint g(void) { return 2; }\nint f(void) { return 1; }\n",
}

// twoBadNames are symbol errors with two bad names each, and the one
// message, at its pinned position, that must report them: the first
// bad name in source or declaration order, where the unit file or C
// file names it.
var twoBadNames = []struct{ name, units, want string }{
	{
		"unbound references",
		`
bundletype A = { f }
unit U = { exports [ a : A ]; files { "calls.c" }; }
unit T = { exports [ a : A ]; link { [a] <- U <- []; }; }
`,
		`calls.c:3:12: T/U#0: file calls.c uses symbol "alpha" which is neither defined by the unit nor bound to an import`,
	},
	{
		"exports not defined",
		`
bundletype AB = { f, g }
unit U = { exports [ ab : AB ]; files { "none.c" }; }
unit T = { exports [ ab : AB ]; link { [ab] <- U <- []; }; }
`,
		`test.unit:3:22: T/U#0: export symbol "f" is not defined by files [none.c]`,
	},
	{
		"renamed exports not defined",
		`
bundletype AB = { f, g }
unit U = { exports [ ab : AB ]; files { "fg.c" }; rename { ab.g to gee; ab.f to eff; }; }
unit T = { exports [ ab : AB ]; link { [ab] <- U <- []; }; }
`,
		`test.unit:3:73: T/U#0: export symbol "eff" is not defined by files [fg.c]`,
	},
	{
		"renames of unknown symbols",
		`
bundletype A = { f }
unit U = { exports [ a : A ]; files { "fg.c" }; rename { a.ghost to g; a.phantom to h; }; }
unit T = { exports [ a : A ]; link { [a] <- U <- []; }; }
`,
		`test.unit:3:58: unit U: rename of a.ghost does not match any bundle symbol`,
	},
	{
		"definitions bound to imports",
		`
bundletype AB = { f, g }
bundletype M = { m }
unit P = { exports [ ab : AB ]; files { "fg.c" }; }
unit U = { imports [ ab : AB ]; exports [ mm : M ]; files { "clash.c" }; }
unit T = { exports [ mm : M ]; link { [ab] <- P <- []; [mm] <- U <- [ab]; }; }
`,
		`clash.c:2:1: T/U#1: identifier "g" is defined locally but also bound to an import`,
	},
	{
		"initializers not defined",
		`
bundletype A = { f }
unit U = { exports [ a : A ]; initializer setup for a; finalizer teardown for a; files { "p.c" }; }
unit T = { exports [ a : A ]; link { [a] <- U <- []; }; }
`,
		`test.unit:3:43: T/U#0: initializer "setup" is not defined by the unit's files`,
	},
}

// TestSymbolErrorsDeterministic elaborates each of twoBadNames 200
// times: every run must fail with the same message at the same
// position, whatever order Go's maps iterate in.
func TestSymbolErrorsDeterministic(t *testing.T) {
	for _, c := range twoBadNames {
		t.Run(c.name, func(t *testing.T) {
			msgs := map[string]int{}
			for i := 0; i < 200; i++ {
				_, err := elabTest(t, c.units, "T", errorSources)
				if err == nil {
					t.Fatal("Elaborate succeeded")
				}
				msgs[err.Error()]++
			}
			if len(msgs) != 1 || msgs[c.want] != 200 {
				t.Errorf("200 elaborations gave %v, want only %q", msgs, c.want)
			}
		})
	}
}

func TestRegistryDuplicates(t *testing.T) {
	f1, _ := lang.Parse("a.unit", `bundletype T = { x }`)
	f2, _ := lang.Parse("b.unit", `bundletype T = { y }`)
	if _, err := NewRegistry(f1, f2); err == nil ||
		!strings.Contains(err.Error(), "redefined") {
		t.Errorf("err = %v, want redefined", err)
	}
}

// TestSpuriousExternTolerated: Figure 1(b)'s "spurious and unused extern
// declaration" is tolerated — only a *used* unbound symbol is an error.
// (The extern still obscures the component's true shape in ld's world;
// under Knit it is simply dead text.)
func TestSpuriousExternTolerated(t *testing.T) {
	units := `
bundletype A = { f }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`
	sources := Sources{"p.c": `
extern int never_called(int x);  // spurious notch
extern int also_unused;
int f(void) { return 1; }
`}
	if _, err := elabTest(t, units, "T", sources); err != nil {
		t.Errorf("unused extern should be tolerated: %v", err)
	}
	// The same extern, once used, is a hard error.
	sources["p.c"] = `
extern int never_called(int x);
int f(void) { return never_called(1); }
`
	if _, err := elabTest(t, units, "T", sources); err == nil {
		t.Error("used unbound extern must be an error")
	}
}

// TestScaleWideKernel: elaboration and symbol resolution stay correct at
// a few hundred units.
func TestScaleWideKernel(t *testing.T) {
	const n = 300
	var b strings.Builder
	sources := Sources{}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "bundletype B%d = { f%d }\n", i, i)
		imports, body := "", ""
		if i > 0 {
			imports = fmt.Sprintf("imports [ below : B%d ];", i-1)
			body = fmt.Sprintf("int f%d(void);\nint f%d(void) { return f%d() + 1; }\n", i-1, i, i-1)
		} else {
			body = "int f0(void) { return 0; }\n"
		}
		fmt.Fprintf(&b, "unit U%d = {\n  %s\n  exports [ e : B%d ];\n  files { \"u%d.c\" };\n}\n",
			i, imports, i, i)
		sources[fmt.Sprintf("u%d.c", i)] = body
	}
	fmt.Fprintf(&b, "unit Wide = {\n  exports [ top : B%d ];\n  link {\n", n-1)
	for i := 0; i < n; i++ {
		ins := ""
		if i > 0 {
			ins = fmt.Sprintf("w%d", i-1)
		}
		out := fmt.Sprintf("w%d", i)
		if i == n-1 {
			out = "top"
		}
		fmt.Fprintf(&b, "    [%s] <- U%d <- [%s];\n", out, i, ins)
	}
	b.WriteString("  };\n}\n")
	p := mustElab(t, b.String(), "Wide", sources)
	if len(p.Instances) != n {
		t.Fatalf("instances = %d, want %d", len(p.Instances), n)
	}
	// Every instance got a unique export symbol.
	seen := map[string]bool{}
	for _, inst := range p.Instances {
		for _, syms := range inst.ExportSyms {
			for _, g := range syms {
				if seen[g] {
					t.Fatalf("duplicate global %q", g)
				}
				seen[g] = true
			}
		}
	}
}

func TestAmbientSymbolsNotRenamed(t *testing.T) {
	units := `
bundletype A = { f }
unit P = { exports [ a : A ]; files { "p.c" }; }
unit T = { exports [ a : A ]; link { [a] <- P <- []; }; }
`
	sources := Sources{"p.c": `
extern int __console_out(int c);
int f(void) { return __console_out(65); }
`}
	p := mustElab(t, units, "T", sources)
	// The ambient symbol must survive unrenamed in the instance AST.
	found := false
	for _, d := range p.Instances[0].RenamedFile(0).Decls {
		if d.DeclName() == "__console_out" {
			found = true
		}
	}
	if !found {
		t.Error("__console_out was renamed or dropped")
	}
}
