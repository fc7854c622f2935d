package reconfigure

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// The fixture is a three-stage pipeline A <- B <- C. Upgrades replace B
// with B2 (same export surface and renames, so A and C keep their slots
// and globals), or break in controlled ways.
//
// The replacement unit must keep the base unit's renames for its export
// symbols: the generated global names are what unchanged consumers were
// compiled against, and keeping them is what makes the diff minimal.

func unitsText(bUnit string) string {
	return `
bundletype Svc = { get }

unit A = {
  exports [ a : Svc ];
  initializer a_init for a;
  files { "a.c" };
  rename { a.get to a_get; };
}
unit B = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer b_init for b;
  depends { b needs a; b_init needs a; };
  files { "b.c" };
  rename { a.get to a_get; b.get to b_get; };
}
unit B2 = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer b2_init for b;
  depends { b needs a; b2_init needs a; };
  files { "b2.c" };
  rename { a.get to a_get; b.get to b_get; };
}
unit B2Trap = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer b2trap_init for b;
  depends { b needs a; b2trap_init needs a; };
  files { "b2trap.c" };
  rename { a.get to a_get; b.get to b_get; };
}
unit B2Bad = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer b2bad_init for b;
  depends { b needs a; b2bad_init needs a; };
  files { "b2bad.c" };
  rename { a.get to a_get; b.get to b_get; };
}
unit C = {
  imports [ b : Svc ];
  exports [ c : Svc ];
  initializer c_init for c;
  depends { c needs b; };
  files { "c.c" };
  rename { b.get to b_get; c.get to c_get; };
}
unit Chain = {
  exports [ c : Svc ];
  link {
    [a] <- A <- [];
    [b] <- ` + bUnit + ` <- [a];
    [c] <- C <- [b];
  };
}
`
}

var testSources = link.Sources{
	"a.c": `
static int state;
void a_init(void) { state = 10; }
int a_get(void) { return state; }
`,
	"b.c": `
int a_get(void);
static int state;
void b_init(void) { state = a_get() + 10; }
int b_get(void) { return state; }
`,
	"b2.c": `
int a_get(void);
static int state;
void b2_init(void) { state = a_get() + 200; }
int b_get(void) { return state + 1; }
`,
	"b2trap.c": `
int a_get(void);
void __no_such_device(void);
static int state;
void b2trap_init(void) { state = a_get(); }
int b_get(void) { __no_such_device(); return state; }
`,
	"b2bad.c": `
int a_get(void);
void __no_such_device(void);
static int state;
void b2bad_init(void) { __no_such_device(); state = 1; }
int b_get(void) { return state; }
`,
	"c.c": `
int b_get(void);
static int state;
void c_init(void) { state = 1; }
int c_get(void) { return b_get() + state; }
`,
	"d.c": `
int b_get(void);
static int state;
void d_init(void) { state = b_get() * 2; }
int d_get(void) { return state; }
`,
}

func buildChain(t *testing.T, bUnit string) *build.Result {
	t.Helper()
	res, err := build.Build(build.Options{
		Top:       "Chain",
		UnitFiles: map[string]string{"chain.unit": unitsText(bUnit)},
		Sources:   testSources,
		Check:     true,
	})
	if err != nil {
		t.Fatalf("Build(%s): %v", bUnit, err)
	}
	return res
}

func target(bUnit string) Target {
	return Target{
		Top:       "Chain",
		UnitFiles: map[string]string{"chain.unit": unitsText(bUnit)},
		Sources:   testSources,
		Check:     true,
	}
}

func callC(t *testing.T, res *build.Result, m *machine.M) int64 {
	t.Helper()
	g, err := res.Export("c", "get")
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Run(g)
	if err != nil {
		t.Fatalf("c.get: %v", err)
	}
	return v
}

func TestDiffNoOp(t *testing.T) {
	res := buildChain(t, "B")
	plan, err := Diff(res, target("B"))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if !plan.NoOp() {
		t.Fatalf("identical target produced a non-empty plan: %s", plan.Summary())
	}
	if len(plan.unchanged) != 3 {
		t.Fatalf("unchanged = %d, want 3 (%s)", len(plan.unchanged), plan.Summary())
	}
}

func TestDiffMinimalReplace(t *testing.T) {
	res := buildChain(t, "B")
	plan, err := Diff(res, target("B2"))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(plan.replaces) != 1 || len(plan.adds) != 0 || len(plan.retires) != 0 {
		t.Fatalf("plan not minimal: %s", plan.Summary())
	}
	if got := plan.replaces[0].base.Unit.Name; got != "B" {
		t.Fatalf("replaced unit = %s, want B", got)
	}
	if got := plan.replaces[0].tgt.Unit.Name; got != "B2" {
		t.Fatalf("replacement unit = %s, want B2", got)
	}
	if len(plan.unchanged) != 2 {
		t.Fatalf("unchanged = %d, want 2 (A and C): %s", len(plan.unchanged), plan.Summary())
	}
	steps := plan.Steps()
	if len(steps) == 0 || steps[0].Op != "load" {
		t.Fatalf("steps = %+v, want load first", steps)
	}
}

// TestDiffComparesWhatFilesAreMadeOf pins what makes a slot's source
// unchanged: the file's name, text and renames, as the build cache keys
// it. A text that differs only in a comment is a replacement, though the
// renamed file prints the same.
func TestDiffComparesWhatFilesAreMadeOf(t *testing.T) {
	res := buildChain(t, "B")
	tgt := target("B")
	tgt.Sources = maps.Clone(testSources)
	tgt.Sources["c.c"] = "// the same code\n" + testSources["c.c"]
	plan, err := Diff(res, tgt)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(plan.replaces) != 1 || plan.replaces[0].base.Unit.Name != "C" || len(plan.unchanged) != 2 {
		t.Fatalf("plan = %s, want C replaced and A and B unchanged", plan.Summary())
	}
}

// staleChainText is the fixture for initializer-staleness propagation:
// D's initializer captures b's value at boot (`d_init needs b` declares
// it), so replacing B must reload D too — interposition redirects D's
// calls to the new B, but not the state d_init already captured.
func staleChainText(bUnit string) string {
	return unitsText(bUnit) + `
unit D = {
  imports [ b : Svc ];
  exports [ d : Svc ];
  initializer d_init for d;
  depends { d needs b; d_init needs b; };
  files { "d.c" };
  rename { b.get to b_get; d.get to d_get; };
}
unit StaleChain = {
  exports [ d : Svc ];
  link {
    [a] <- A <- [];
    [b] <- ` + bUnit + ` <- [a];
    [d] <- D <- [b];
  };
}
`
}

func staleTarget(bUnit string) Target {
	return Target{
		Top:       "StaleChain",
		UnitFiles: map[string]string{"chain.unit": staleChainText(bUnit)},
		Sources:   testSources,
		Check:     true,
	}
}

func TestDiffReloadsStaleDownstreamInit(t *testing.T) {
	res, err := build.Build(build.Options{
		Top:       "StaleChain",
		UnitFiles: map[string]string{"chain.unit": staleChainText("B")},
		Sources:   testSources,
		Check:     true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	g, err := res.Export("d", "get")
	if err != nil {
		t.Fatal(err)
	}
	// Base: a=10, b=20, d_init captured 20*2.
	if v, _ := m.Run(g); v != 40 {
		t.Fatalf("base d.get = %d, want 40", v)
	}

	plan, err := Diff(res, staleTarget("B2"))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	// B is replaced outright; D is unchanged as a unit but its declared
	// init dependency on b promotes it to a reload. A stays put.
	if len(plan.replaces) != 2 || len(plan.unchanged) != 1 {
		t.Fatalf("plan = %s, want 2 replace (B and D) and 1 unchanged (A)", plan.Summary())
	}
	var reloadStep bool
	for _, s := range plan.Steps() {
		if s.Op == "load" && strings.Contains(s.Detail, "reload D") {
			reloadStep = true
		}
	}
	if !reloadStep {
		t.Fatalf("no reload step for D in %+v", plan.Steps())
	}

	a, err := plan.Apply(m, nil)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// B2: b = (10+200)+1 = 211; D re-initialized against it: 422. A live
	// machine that kept D's old state would answer 40.
	if v, _ := m.Run(g); v != 422 {
		t.Fatalf("upgraded d.get = %d, want 422 (cold-build value)", v)
	}

	a.Rollback()
	if err := a.VerifyRolledBack(); err != nil {
		t.Fatalf("rollback residue: %v", err)
	}
	if v, _ := m.Run(g); v != 40 {
		t.Fatalf("rolled-back d.get = %d, want 40", v)
	}
}

func TestDiffRejectsDroppedExport(t *testing.T) {
	res := buildChain(t, "B")
	bad := target("B2")
	// A target whose top no longer exports c: live callers hold its
	// resolved global.
	bad.UnitFiles["chain.unit"] = strings.Replace(bad.UnitFiles["chain.unit"],
		"exports [ c : Svc ];\n  link {\n    [a]", "link {\n    [a]", 1)
	if _, err := Diff(res, bad); err == nil {
		t.Fatal("Diff accepted a target dropping a top-level export")
	}
}

func TestApplyReplaceLiveAndRollback(t *testing.T) {
	for _, backend := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		res := buildChain(t, "B")
		res.Backend = backend
		m := res.NewMachine()
		if err := res.RunInit(m); err != nil {
			t.Fatal(err)
		}
		// Base: a=10, b=20, c=21.
		if v := callC(t, res, m); v != 21 {
			t.Fatalf("[%v] base c.get = %d, want 21", backend, v)
		}
		plan, err := Diff(res, target("B2"))
		if err != nil {
			t.Fatalf("Diff: %v", err)
		}
		pre := m.Snapshot()
		a, err := plan.Apply(m, nil)
		if err != nil {
			t.Fatalf("[%v] Apply: %v", backend, err)
		}
		// B2: state = 10+200, get returns state+1, c adds 1 -> 212.
		if v := callC(t, res, m); v != 212 {
			t.Fatalf("[%v] upgraded c.get = %d, want 212", backend, v)
		}
		if len(a.Modules()) != 1 {
			t.Fatalf("[%v] modules = %v, want one", backend, a.Modules())
		}
		a.Rollback()
		if err := a.VerifyRolledBack(); err != nil {
			t.Fatalf("[%v] rollback verification: %v", backend, err)
		}
		if err := m.StateEqual(pre); err != nil {
			t.Fatalf("[%v] rollback left residue: %v", backend, err)
		}
		if v := callC(t, res, m); v != 21 {
			t.Fatalf("[%v] rolled-back c.get = %d, want 21", backend, v)
		}
	}
}

func TestApplySecondUpgradeRetiresFirst(t *testing.T) {
	res := buildChain(t, "B")
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	plan2, err := Diff(res, target("B2"))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := plan2.Apply(m, nil)
	if err != nil {
		t.Fatalf("first Apply: %v", err)
	}
	if v := callC(t, res, m); v != 212 {
		t.Fatalf("upgraded c.get = %d, want 212", v)
	}
	// Upgrade again to the same target: the second apply loads a fresh
	// module, re-points the anchors, and must unload the first's.
	a2, err := plan2.Apply(m, a1)
	if err != nil {
		t.Fatalf("second Apply: %v", err)
	}
	if v := callC(t, res, m); v != 212 {
		t.Fatalf("re-upgraded c.get = %d, want 212", v)
	}
	mods := m.DynModules()
	if len(mods) != 1 {
		t.Fatalf("live modules = %v, want exactly the second upgrade's", mods)
	}
	if mods[0] != a2.Modules()[0] {
		t.Fatalf("live module %s is not the second upgrade's %s", mods[0], a2.Modules()[0])
	}
}

// TestRollbackRestoresRetiredUpgrade rolls back a second upgrade that
// retired the first one's module. The restore brings that module back
// on the machine, and the build layer must know it again without being
// told: it is in the live program, and a later apply retires it.
func TestRollbackRestoresRetiredUpgrade(t *testing.T) {
	res := buildChain(t, "B")
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	plan, err := Diff(res, target("B2"))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := plan.Apply(m, nil)
	if err != nil {
		t.Fatalf("first Apply: %v", err)
	}
	a2, err := plan.Apply(m, a1)
	if err != nil {
		t.Fatalf("second Apply: %v", err)
	}
	a2.Rollback()
	if mods := m.DynModules(); !slices.Equal(mods, a1.Modules()) {
		t.Fatalf("live modules after rollback = %v, want the first upgrade's %v", mods, a1.Modules())
	}
	if v := callC(t, res, m); v != 212 {
		t.Fatalf("c.get after rollback = %d, want 212 from the first upgrade", v)
	}
	live := res.LiveProgram(m)
	if got := len(live.Instances) - len(res.Program.Instances); got != 1 {
		t.Fatalf("live program has %d dynamic instances after rollback, want the first upgrade's one", got)
	}
	a3, err := plan.Apply(m, a1)
	if err != nil {
		t.Fatalf("third Apply: %v", err)
	}
	if mods := m.DynModules(); !slices.Equal(mods, a3.Modules()) {
		t.Fatalf("live modules = %v, want only the third upgrade's %v", mods, a3.Modules())
	}
}

func TestApplyRevertToBaseUnloadsModule(t *testing.T) {
	res := buildChain(t, "B")
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	planUp, err := Diff(res, target("B2"))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := planUp.Apply(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reverting is just another reconfiguration: target equals the base
	// config, so the plan is a no-op against the static program, and
	// applying it with prev retires the upgrade's module and anchors.
	planBack, err := Diff(res, target("B"))
	if err != nil {
		t.Fatal(err)
	}
	if !planBack.NoOp() {
		t.Fatalf("revert plan not no-op: %s", planBack.Summary())
	}
	if _, err := planBack.Apply(m, a1); err != nil {
		t.Fatalf("revert Apply: %v", err)
	}
	if v := callC(t, res, m); v != 21 {
		t.Fatalf("reverted c.get = %d, want 21", v)
	}
	if mods := m.DynModules(); len(mods) != 0 {
		t.Fatalf("reverted machine still has modules %v", mods)
	}
}

func TestApplyFailingInitRollsBack(t *testing.T) {
	res := buildChain(t, "B")
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	pre := m.Snapshot()
	plan, err := Diff(res, target("B2Bad"))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if _, err := plan.Apply(m, nil); err == nil {
		t.Fatal("Apply of a failing initializer succeeded")
	}
	if err := m.StateEqual(pre); err != nil {
		t.Fatalf("failed apply left residue: %v", err)
	}
	if v := callC(t, res, m); v != 21 {
		t.Fatalf("post-failure c.get = %d, want 21", v)
	}
	// The failed attempt must not leak bookkeeping that would corrupt a
	// later, good upgrade.
	good, err := Diff(res, target("B2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Apply(m, nil); err != nil {
		t.Fatalf("Apply after failed attempt: %v", err)
	}
	if v := callC(t, res, m); v != 212 {
		t.Fatalf("c.get after recovery upgrade = %d, want 212", v)
	}
}
