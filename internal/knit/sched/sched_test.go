package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"knit/internal/knit/lang"
	"knit/internal/knit/link"
)

// elabProgram builds a program from unit-language source; every atomic
// unit gets a trivial generated C file defining its exports and
// initializers.
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

func indexOfPrefix(names []string, prefix string) int {
	for i, n := range names {
		if strings.HasPrefix(n, prefix) {
			return i
		}
	}
	return -1
}

// TestPaperLoggingDistinction encodes §3.2's example: "open_log needs
// stdio" must order stdio's initializer before open_log, while
// "serveLog needs serveWeb" (export-level, serveWeb has no initializer)
// imposes nothing extra.
func TestPaperLoggingDistinction(t *testing.T) {
	units := `
bundletype Serve = { serve_web }
bundletype Stdio = { fopen }

unit StdioU = {
  exports [ stdio : Stdio ];
  initializer stdio_init for stdio;
  files { "stdio.c" };
}
unit WebU = {
  exports [ serveWeb : Serve ];
  files { "web.c" };
}
unit LogU = {
  imports [ serveWeb : Serve, stdio : Stdio ];
  exports [ serveLog : Serve ];
  initializer open_log for serveLog;
  depends {
    open_log needs stdio;
    serveLog needs (serveWeb + stdio);
  };
  files { "log.c" };
  rename {
    serveWeb.serve_web to serve_unlogged;
    serveLog.serve_web to serve_logged;
  };
}
unit Top = {
  exports [ serveLog : Serve ];
  link {
    [stdio] <- StdioU <- [];
    [serveWeb] <- WebU <- [];
    [serveLog] <- LogU <- [serveWeb, stdio];
  };
}
`
	sources := link.Sources{
		"stdio.c": `void stdio_init(void) { } int fopen(char *n, char *m) { return 1; }`,
		"web.c":   `int serve_web(int s) { return 0; }`,
		"log.c": `
int serve_unlogged(int s);
int fopen(char *n, char *m);
void open_log(void) { fopen("log", "a"); }
int serve_logged(int s) { return serve_unlogged(s); }
`,
	}
	p := elabProgram(t, units, "Top", sources)
	s, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	si := indexOfPrefix(s.Inits, "stdio_init")
	oi := indexOfPrefix(s.Inits, "open_log")
	if si < 0 || oi < 0 {
		t.Fatalf("schedule missing inits: %v", s.Inits)
	}
	if si > oi {
		t.Errorf("stdio_init must precede open_log: %v", s.Inits)
	}
}

// TestBundleLevelDependencyAlone verifies the paper's subtlety: a
// bundle-level dependency by itself does NOT order two components'
// initializers, but an initializer-level dependency does.
func TestBundleLevelDependencyAlone(t *testing.T) {
	mk := func(dep string) string {
		return fmt.Sprintf(`
bundletype A = { fa }
bundletype B = { fb }
unit UA = {
  imports [ b : B ];
  exports [ a : A ];
  initializer init_a for a;
  depends { %s; };
  files { "a.c" };
}
unit UB = {
  exports [ b : B ];
  initializer init_b for b;
  files { "b.c" };
}
unit Top = {
  exports [ a : A ];
  link {
    [b] <- UB <- [];
    [a] <- UA <- [b];
  };
}
`, dep)
	}
	sources := link.Sources{
		"a.c": `int fb(void); void init_a(void) { } int fa(void) { return fb(); }`,
		"b.c": `void init_b(void) { } int fb(void) { return 1; }`,
	}

	// Initializer-level: init_b must come first.
	p := elabProgram(t, mk("init_a needs b"), "Top", sources)
	s, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	if indexOfPrefix(s.Inits, "init_b") > indexOfPrefix(s.Inits, "init_a") {
		t.Errorf("init-level dep violated: %v", s.Inits)
	}

	// Bundle-level only: both orders are legal; the scheduler must still
	// produce both initializers without error.
	p2 := elabProgram(t, mk("a needs b"), "Top", sources)
	s2, err := Compute(p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Inits) != 2 {
		t.Errorf("schedule = %v, want both initializers", s2.Inits)
	}
}

// TestCyclicImportsFineCyclicInitsError: cyclic import graphs are
// supported (the paper: "cyclic imports are common"), but a genuine
// cycle among initializers is an error with the offending path.
func TestCyclicImportsFineCyclicInitsError(t *testing.T) {
	units := `
bundletype A = { fa }
bundletype B = { fb }
unit UA = {
  imports [ b : B ];
  exports [ a : A ];
  initializer init_a for a;
  depends { init_a needs b; };
  files { "a.c" };
}
unit UB = {
  imports [ a : A ];
  exports [ b : B ];
  initializer init_b for b;
  depends { init_b needs a; };
  files { "b.c" };
}
unit Top = {
  exports [ a : A ];
  link {
    [a] <- UA <- [b];
    [b] <- UB <- [a];
  };
}
`
	sources := link.Sources{
		"a.c": `int fb(void); void init_a(void) { } int fa(void) { return fb(); }`,
		"b.c": `int fa(void); void init_b(void) { } int fb(void) { return fa(); }`,
	}
	p := elabProgram(t, units, "Top", sources)
	_, err := Compute(p)
	if err == nil {
		t.Fatal("cyclic initializers should error")
	}
	ce, ok := err.(*CycleError)
	if !ok {
		t.Fatalf("err = %T %v, want CycleError", err, err)
	}
	if len(ce.Path) < 2 {
		t.Errorf("cycle path too short: %v", ce.Path)
	}
	if !strings.Contains(err.Error(), "finer-grained") {
		t.Errorf("error should advise finer-grained deps: %v", err)
	}

	// Breaking the cycle with a finer-grained declaration (drop one
	// initializer dependency) makes it schedulable — the paper's fix.
	fixed := strings.Replace(units, "depends { init_b needs a; };", "depends { b needs a; };", 1)
	p2 := elabProgram(t, fixed, "Top", sources)
	s, err := Compute(p2)
	if err != nil {
		t.Fatalf("after breaking cycle: %v", err)
	}
	if indexOfPrefix(s.Inits, "init_a") < 0 || indexOfPrefix(s.Inits, "init_b") < 0 {
		t.Errorf("schedule incomplete: %v", s.Inits)
	}
}

// TestTransitiveReadiness: init_c needs b; b's exports need a; so a's
// initializer must precede init_c even though c never mentions a.
func TestTransitiveReadiness(t *testing.T) {
	units := `
bundletype A = { fa }
bundletype B = { fb }
bundletype C = { fc }
unit UA = {
  exports [ a : A ];
  initializer init_a for a;
  files { "a.c" };
}
unit UB = {
  imports [ a : A ];
  exports [ b : B ];
  depends { b needs a; };
  files { "b.c" };
}
unit UC = {
  imports [ b : B ];
  exports [ c : C ];
  initializer init_c for c;
  depends { init_c needs b; };
  files { "c.c" };
}
unit Top = {
  exports [ c : C ];
  link {
    [a] <- UA <- [];
    [b] <- UB <- [a];
    [c] <- UC <- [b];
  };
}
`
	sources := link.Sources{
		"a.c": `void init_a(void) { } int fa(void) { return 1; }`,
		"b.c": `int fa(void); int fb(void) { return fa(); }`,
		"c.c": `int fb(void); void init_c(void) { } int fc(void) { return fb(); }`,
	}
	p := elabProgram(t, units, "Top", sources)
	s, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	ia := indexOfPrefix(s.Inits, "init_a")
	ic := indexOfPrefix(s.Inits, "init_c")
	if ia < 0 || ic < 0 || ia > ic {
		t.Errorf("init_a must precede init_c via transitive readiness: %v", s.Inits)
	}
}

func TestFinalizersReverseOrder(t *testing.T) {
	units := `
bundletype A = { fa }
bundletype B = { fb }
unit UA = {
  exports [ a : A ];
  initializer init_a for a;
  finalizer fin_a for a;
  files { "a.c" };
}
unit UB = {
  imports [ a : A ];
  exports [ b : B ];
  initializer init_b for b;
  finalizer fin_b for b;
  depends { init_b needs a; fin_b needs a; };
  files { "b.c" };
}
unit Top = {
  exports [ b : B ];
  link {
    [a] <- UA <- [];
    [b] <- UB <- [a];
  };
}
`
	sources := link.Sources{
		"a.c": `void init_a(void) { } void fin_a(void) { } int fa(void) { return 1; }`,
		"b.c": `int fa(void); void init_b(void) { } void fin_b(void) { } int fb(void) { return fa(); }`,
	}
	p := elabProgram(t, units, "Top", sources)
	s, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	// init: a then b. fini: b then a.
	if indexOfPrefix(s.Inits, "init_a") > indexOfPrefix(s.Inits, "init_b") {
		t.Errorf("inits: %v", s.Inits)
	}
	if indexOfPrefix(s.Fins, "fin_b") > indexOfPrefix(s.Fins, "fin_a") {
		t.Errorf("fins should reverse init order: %v", s.Fins)
	}
}

// TestQuickRandomDAGSchedulable generates random initializer dependency
// DAGs (as chains of units) and checks the schedule respects every edge
// — the scheduler's core property.
func TestQuickRandomDAGSchedulable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	fn := func() bool {
		n := 3 + r.Intn(5)
		// Unit i may depend on units j > i (so the graph is a DAG).
		deps := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					deps[i] = append(deps[i], j)
				}
			}
		}
		var units strings.Builder
		sources := link.Sources{}
		fmt.Fprintf(&units, "bundletype B = { f0 }\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&units, "bundletype B%d = { f%d }\n", i, i)
		}
		for i := 0; i < n; i++ {
			var imps, depsStr []string
			for _, j := range deps[i] {
				imps = append(imps, fmt.Sprintf("i%d : B%d", j, j))
				depsStr = append(depsStr, fmt.Sprintf("init_%d needs i%d;", i, j))
			}
			impSection := ""
			if len(imps) > 0 {
				impSection = fmt.Sprintf("imports [ %s ];", strings.Join(imps, ", "))
			}
			depSection := ""
			if len(depsStr) > 0 {
				depSection = fmt.Sprintf("depends { %s };", strings.Join(depsStr, " "))
			}
			fmt.Fprintf(&units, `
unit U%d = {
  %s
  exports [ e%d : B%d ];
  initializer init_%d for e%d;
  %s
  files { "u%d.c" };
}
`, i, impSection, i, i, i, i, depSection, i)
			var src strings.Builder
			for _, j := range deps[i] {
				fmt.Fprintf(&src, "int f%d(void);\n", j)
			}
			fmt.Fprintf(&src, "void init_%d(void) { }\nint f%d(void) { return %d; }\n", i, i, i)
			sources[fmt.Sprintf("u%d.c", i)] = src.String()
		}
		// Top links them all; unit i receives its deps.
		fmt.Fprintf(&units, "unit Top = {\n  exports [ e0 : B0 ];\n  link {\n")
		for i := n - 1; i >= 0; i-- {
			var ins []string
			for _, j := range deps[i] {
				ins = append(ins, fmt.Sprintf("e%d", j))
			}
			fmt.Fprintf(&units, "    [e%d] <- U%d <- [%s];\n", i, i, strings.Join(ins, ", "))
		}
		fmt.Fprintf(&units, "  };\n}\n")

		p := elabProgram(t, units.String(), "Top", sources)
		s, err := Compute(p)
		if err != nil {
			t.Logf("Compute failed: %v\n%s", err, units.String())
			return false
		}
		pos := map[int]int{}
		for idx, name := range s.Inits {
			var unit int
			fmt.Sscanf(name, "init_%d", &unit)
			pos[unit] = idx
		}
		if len(pos) != n {
			t.Logf("schedule incomplete: %v", s.Inits)
			return false
		}
		for i := 0; i < n; i++ {
			for _, j := range deps[i] {
				if pos[j] > pos[i] {
					t.Logf("edge %d needs %d violated: %v", i, j, s.Inits)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStepMetadataAndFinReady: the schedule's Step records must carry
// the owning instance and source-level names parallel to Inits/Fins,
// and FinReady/FinsReadyAfter must give exactly the rollback set for a
// failure at each schedule position.
func TestStepMetadataAndFinReady(t *testing.T) {
	units := `
bundletype A = { fa }
bundletype B = { fb }
unit UA = {
  exports [ a : A ];
  initializer init_a for a;
  finalizer fin_a for a;
  files { "a.c" };
}
unit UB = {
  imports [ a : A ];
  exports [ b : B ];
  initializer init_b for b;
  finalizer fin_b for b;
  depends { init_b needs a; fin_b needs a; };
  files { "b.c" };
}
unit Top = {
  exports [ b : B ];
  link {
    [a] <- UA <- [];
    [b] <- UB <- [a];
  };
}
`
	sources := link.Sources{
		"a.c": `void init_a(void) { } void fin_a(void) { } int fa(void) { return 1; }`,
		"b.c": `int fa(void); void init_b(void) { } void fin_b(void) { } int fb(void) { return fa(); }`,
	}
	p := elabProgram(t, units, "Top", sources)
	s, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.InitSteps) != len(s.Inits) || len(s.FinSteps) != len(s.Fins) ||
		len(s.FinReady) != len(s.Fins) {
		t.Fatalf("step metadata not parallel: %d/%d inits, %d/%d/%d fins",
			len(s.InitSteps), len(s.Inits), len(s.FinSteps), len(s.FinReady), len(s.Fins))
	}
	for i, step := range s.InitSteps {
		if step.Global != s.Inits[i] {
			t.Errorf("InitSteps[%d].Global = %q, want %q", i, step.Global, s.Inits[i])
		}
	}
	for i, step := range s.FinSteps {
		if step.Global != s.Fins[i] {
			t.Errorf("FinSteps[%d].Global = %q, want %q", i, step.Global, s.Fins[i])
		}
	}
	// init order is a then b; fins reverse: fin_b then fin_a.
	if s.InitSteps[0].Func != "init_a" || s.InitSteps[0].Bundle != "a" ||
		!strings.Contains(s.InitSteps[0].Instance, "UA") {
		t.Errorf("InitSteps[0] = %+v, want init_a for bundle a of the UA instance", s.InitSteps[0])
	}
	if s.InitSteps[1].Func != "init_b" || !strings.Contains(s.InitSteps[1].Instance, "UB") {
		t.Errorf("InitSteps[1] = %+v, want init_b of the UB instance", s.InitSteps[1])
	}
	if s.FinSteps[0].Func != "fin_b" || s.FinSteps[1].Func != "fin_a" {
		t.Errorf("FinSteps = %+v, want fin_b then fin_a", s.FinSteps)
	}
	// fin_b becomes runnable only after both inits (rank 2); fin_a after
	// the first (rank 1).
	if s.FinReady[0] != 2 || s.FinReady[1] != 1 {
		t.Errorf("FinReady = %v, want [2 1]", s.FinReady)
	}
	// Rollback sets: nothing ran -> nothing to finalize; init_a done ->
	// fin_a only; both done -> both, fin_b first.
	cases := [][]int{0: {}, 1: {1}, 2: {0, 1}}
	for completed, want := range cases {
		got := s.FinsReadyAfter(completed)
		if len(got) != len(want) {
			t.Errorf("FinsReadyAfter(%d) = %v, want %v", completed, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("FinsReadyAfter(%d) = %v, want %v", completed, got, want)
				break
			}
		}
	}
}
