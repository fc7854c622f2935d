package assemble_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"knit/internal/knit/assemble"
	"knit/internal/knit/constraint"
	"knit/internal/machine"
	"knit/internal/oskit"
)

// smallOpts keeps searches cheap in tests; correctness must not depend
// on large budgets.
var smallOpts = assemble.Options{RawBudget: 64, RankPool: 3}

func mustParse(t *testing.T, src string) *assemble.Goal {
	t.Helper()
	g, err := assemble.ParseGoal("test.goal", src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAssembleConsoleGoal(t *testing.T) {
	g := mustParse(t, `goal Console; export out : PutChar; bound context(out) <= NoContext;`)
	asm, err := assemble.Assemble(oskit.Repository(), g, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if asm.Cost.TextSize <= 0 {
		t.Fatalf("cost not measured: %+v", asm.Cost)
	}
	if !strings.Contains(asm.Text, "unit Console") {
		t.Fatalf("emitted text lacks the named compound:\n%s", asm.Text)
	}
	// The emitted source is self-contained against the repository: a
	// cold rebuild with the checker on must succeed.
	if asm.Result == nil || asm.Result.ConstraintReport == nil {
		t.Fatal("assembly was not verified by the constraint checker")
	}
}

func TestAssemblePrefersCheaperProvider(t *testing.T) {
	// Printf requires a PutChar provider underneath; enumeration must
	// surface distinct wirings (ConsoleDev vs SerialDev vs VgaConsole),
	// ranked by measured cost.
	g := mustParse(t, `goal Pf; export pf : Printf;`)
	asms, err := assemble.Enumerate(oskit.Repository(), g, 3, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(asms) < 2 {
		t.Fatalf("want >= 2 distinct assemblies, got %d", len(asms))
	}
	seen := map[string]bool{}
	for i, a := range asms {
		if seen[a.Text] {
			t.Fatalf("assembly %d duplicates an earlier text", i)
		}
		seen[a.Text] = true
		if i > 0 && asms[i-1].Cost.Score() > a.Cost.Score() {
			t.Fatalf("assemblies not sorted by cost: %v then %v", asms[i-1].Cost, a.Cost)
		}
	}
}

func TestAssembleHonorsUseAndTop(t *testing.T) {
	g := mustParse(t, `goal Hello; export main : Main; top HelloMain; use SerialDev;`)
	asm, err := assemble.Assemble(oskit.Repository(), g, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	var hasTop, hasUse bool
	for _, u := range asm.Units {
		hasTop = hasTop || u == "HelloMain"
		hasUse = hasUse || u == "SerialDev"
	}
	if !hasTop || !hasUse {
		t.Fatalf("units %v missing top HelloMain or required SerialDev", asm.Units)
	}
	// The assembled kernel must actually run.
	m := asm.Result.NewMachine()
	con := machine.InstallConsole(m)
	machine.InstallSerial(m)
	machine.InstallStopWatch(m)
	if _, err := asm.Result.Run(m, "main", "kmain", 0); err != nil {
		t.Fatalf("assembled kernel run: %v", err)
	}
	if con.String() == "" && !strings.Contains(asm.Text, "SerialDev") {
		t.Fatalf("no output and no serial route:\n%s", asm.Text)
	}
}

func TestAssembleAvoidExcludesCompoundsTransitively(t *testing.T) {
	// Avoiding SpinLock must also reject compound kernels that contain
	// one (SafeIrqKernel), not just the unit itself.
	g := mustParse(t, `goal I; export irq : Irq; avoid SpinLock, IrqDefer, BlockingLock;`)
	_, err := assemble.Assemble(oskit.Repository(), g, smallOpts)
	var unsat *assemble.UnsatError
	if !errors.As(err, &unsat) {
		t.Fatalf("want UnsatError (no Lock provider left), got %v", err)
	}
}

// TestSection4ContextViolationGoal is the paper's §4 scenario as a goal:
// an interrupt handler over a blocking lock. With the spinlock (and the
// deferred-work detour) forbidden, every wiring pins context(irq) =
// NoContext against a ProcessContext lock — the goal must be reported
// unsatisfiable with the context constraint named, never a wiring.
func TestSection4ContextViolationGoal(t *testing.T) {
	g := mustParse(t, `
goal UnsafeIrq;
export irq : Irq;
use BlockingLock;
avoid SpinLock, IrqDefer;
`)
	_, err := assemble.Assemble(oskit.Repository(), g, smallOpts)
	var unsat *assemble.UnsatError
	if !errors.As(err, &unsat) {
		t.Fatalf("want UnsatError, got %v", err)
	}
	if unsat.Violation == nil {
		t.Fatalf("unsat explanation lacks the blocking constraint: %v", unsat)
	}
	if unsat.Violation.Var.Prop != "context" {
		t.Fatalf("blocking constraint is %q, want the §4 context property: %v",
			unsat.Violation.Var.Prop, unsat)
	}
	if !strings.Contains(unsat.Error(), "context") {
		t.Fatalf("explanation does not name the context constraint: %v", unsat)
	}
}

// unsatGoals is the exhaustive unsatisfiability table: conflicting
// property bounds, missing exports, and forbidden-unit cuts.
var unsatGoals = []struct {
	name string
	goal string
	// wantAll must all appear in the error text.
	wantAll []string
	// wantViolation requires the blocker to be a named constraint.
	wantViolation bool
}{
	{
		name:          "bound conflicts with provider pin",
		goal:          `goal G; export out : PutChar; bound context(out) = ProcessContext;`,
		wantAll:       []string{"context"},
		wantViolation: true,
	},
	{
		name: "two conflicting bounds on one export",
		goal: `goal G; export str : Str;
bound context(str) >= NoContext;
bound context(str) <= ProcessContext;`,
		wantAll:       []string{"context"},
		wantViolation: true,
	},
	{
		name:    "forbidden units cut every provider",
		goal:    `goal G; export out : PutChar; avoid ConsoleDev, SerialDev, VgaConsole;`,
		wantAll: []string{"PutChar", "ConsoleDev", "SerialDev", "VgaConsole", "avoid"},
	},
	{
		name:    "required unit is itself forbidden",
		goal:    `goal G; export lock : Lock; use SpinLock; avoid SpinLock;`,
		wantAll: []string{"SpinLock", "avoid"},
	},
	{
		name:    "required compound contains a forbidden unit",
		goal:    `goal G; export irq : Irq; use SafeIrqKernel; avoid SpinLock;`,
		wantAll: []string{"SafeIrqKernel", "SpinLock", "avoid"},
	},
	{
		name:    "fixed top lacks the export type",
		goal:    `goal G; export out : PutChar; top StringU;`,
		wantAll: []string{"StringU", "PutChar", "top"},
	},
	{
		name:    "drain without its only provider",
		goal:    `goal G; export d : Drainer; avoid DeferredWork;`,
		wantAll: []string{"Drainer", "DeferredWork"},
	},
}

// TestUnsatGoalTable runs unsatGoals, each asserting the explanation
// names the actual blocker.
func TestUnsatGoalTable(t *testing.T) {
	for _, tc := range unsatGoals {
		t.Run(tc.name, func(t *testing.T) {
			g := mustParse(t, tc.goal)
			_, err := assemble.Assemble(oskit.Repository(), g, smallOpts)
			var unsat *assemble.UnsatError
			if !errors.As(err, &unsat) {
				t.Fatalf("want UnsatError, got %v", err)
			}
			for _, w := range tc.wantAll {
				if !strings.Contains(unsat.Error(), w) {
					t.Fatalf("explanation %q does not name %q", unsat.Error(), w)
				}
			}
			if tc.wantViolation && unsat.Violation == nil {
				t.Fatalf("want a named blocking constraint, got %v", unsat)
			}
		})
	}
}

// TestGoalConfigErrors distinguishes misconfigured goals (unknown
// names) from unsatisfiable ones: they fail fast, not with UnsatError.
func TestGoalConfigErrors(t *testing.T) {
	cases := []string{
		`goal G; export out : NoSuchType;`,
		`goal G; export out : PutChar; bound nosuchprop(out) <= NoContext;`,
		`goal G; export out : PutChar; bound context(out) <= NoSuchValue;`,
		`goal G; export out : PutChar; bound context(other) <= NoContext;`,
		`goal G; export out : PutChar; use NoSuchUnit;`,
		`goal G; export out : PutChar; avoid NoSuchUnit;`,
		`goal G; export out : PutChar; top NoSuchUnit;`,
	}
	for _, src := range cases {
		g := mustParse(t, src)
		_, err := assemble.Assemble(oskit.Repository(), g, smallOpts)
		if err == nil {
			t.Fatalf("goal %q accepted", src)
		}
		var unsat *assemble.UnsatError
		if errors.As(err, &unsat) {
			t.Fatalf("goal %q reported unsatisfiable, want config error: %v", src, err)
		}
	}
}

// TestEnumerateGoalBoundsHoldOnEveryResult re-checks the goal bounds on
// every enumerated assembly's elaborated program — the enumerator must
// never leak a wiring that only the winner satisfies.
func TestEnumerateGoalBoundsHoldOnEveryResult(t *testing.T) {
	g := mustParse(t, `goal Q; export enq : WorkQ; bound context(enq) <= NoContext;`)
	asms, err := assemble.Enumerate(oskit.Repository(), g, 4, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range asms {
		w, ok := a.Result.Program.Exports["enq"]
		if !ok {
			t.Fatalf("assembly %s lost the enq export", a.Name)
		}
		bounds := []constraint.Bound{{
			Var:   constraint.Var{Inst: w.Provider, Bundle: w.Bundle, Prop: "context"},
			Op:    a.Goal.Bounds[0].Op,
			Value: "NoContext",
		}}
		if _, err := constraint.CheckAssembly(a.Result.Program.Registry,
			a.Result.Program.SortedInstances(), bounds); err != nil {
			t.Fatalf("assembly %s violates the goal bound: %v", a.Name, err)
		}
	}
}

// TestEnumerateCacheParsesRepositoryOnce: one Enumerate call's
// candidate builds share a build cache, so the repository is parsed
// once per call and every verified assembly elaborates the same unit
// trees. Two calls, run at once over one repository, share nothing.
func TestEnumerateCacheParsesRepositoryOnce(t *testing.T) {
	g := mustParse(t, `goal Q; export enq : WorkQ; bound context(enq) <= NoContext;`)
	repo := oskit.Repository()
	var calls [2][]*assemble.Assembly
	var errs [2]error
	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			calls[i], errs[i] = assemble.Enumerate(repo, g, 4, smallOpts)
		}(i)
	}
	wg.Wait()
	for i, asms := range calls {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(asms) < 2 {
			t.Fatalf("call %d enumerated %d assemblies, want at least 2", i, len(asms))
		}
		first := asms[0].Result.Program.Registry.Units
		for _, a := range asms[1:] {
			for name, u := range first {
				if name != a.Name && a.Result.Program.Registry.Units[name] != u {
					t.Errorf("call %d: assembly %s parsed repository unit %s again", i, a.Text, name)
				}
			}
		}
	}
	if calls[0][0].Result.Program.Registry.Units["SerialDev"] == calls[1][0].Result.Program.Registry.Units["SerialDev"] {
		t.Error("two Enumerate calls shared parsed trees")
	}
}
