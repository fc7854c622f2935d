package build

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// Fallback fixture: the chain A <- B <- C again, but B declares a
// fallback unit BSafe (and BSafe declares BSafe2), so swap tests can
// replace B at runtime — and then replace the replacement. The bundle
// carries a poke symbol that corrupts component state on demand, giving
// restart tests something to recover from.
const fbUnits = `
bundletype Svc = { get, poke }

unit A = {
  exports [ a : Svc ];
  initializer a_init for a;
  files { "a.c" };
  rename { a.get to a_get; a.poke to a_poke; };
}
unit B = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer b_init for b;
  fallback BSafe;
  depends { b needs a; b_init needs a; };
  files { "b.c" };
  rename { a.get to a_get; b.get to b_get; b.poke to b_poke; };
}
unit BSafe = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer bsafe_init for b;
  fallback BSafe2;
  depends { b needs a; bsafe_init needs a; };
  files { "bsafe.c" };
  rename { a.get to a_get; b.get to bsafe_get; b.poke to bsafe_poke; };
}
unit BSafe2 = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer bsafe2_init for b;
  depends { b needs a; bsafe2_init needs a; };
  files { "bsafe2.c" };
  rename { a.get to a_get; b.get to bsafe2_get; b.poke to bsafe2_poke; };
}
unit C = {
  imports [ b : Svc ];
  exports [ c : Svc ];
  initializer c_init for c;
  depends { c needs b; c_init needs b; };
  files { "c.c" };
  rename { b.get to b_get; c.get to c_get; c.poke to c_poke; };
}
unit FChain = {
  exports [ a : Svc, b : Svc, c : Svc ];
  link {
    [a] <- A <- [];
    [b] <- B <- [a];
    [c] <- C <- [b];
  };
}
`

var fbSources = link.Sources{
	"a.c": `
static int state;
void a_init(void) { state = 10; }
int a_get(void) { return state; }
void a_poke(void) { state = 555; }
`,
	"b.c": `
int a_get(void);
static int state;
void b_init(void) { state = a_get() + 10; }
int b_get(void) { return state; }
void b_poke(void) { state = 999; }
`,
	"bsafe.c": `
int a_get(void);
static int state;
void bsafe_init(void) { state = a_get() + 100; }
int bsafe_get(void) { return state; }
void bsafe_poke(void) { state = 888; }
`,
	"bsafe2.c": `
int a_get(void);
static int state;
void bsafe2_init(void) { state = a_get() + 200; }
int bsafe2_get(void) { return state; }
void bsafe2_poke(void) { state = 777; }
`,
	"c.c": `
int b_get(void);
static int state;
void c_init(void) { state = 1; }
int c_get(void) { return b_get() + state; }
void c_poke(void) { state = 444; }
`,
}

func buildFB(t *testing.T) *Result {
	t.Helper()
	res, err := Build(Options{
		Top:       "FChain",
		UnitFiles: map[string]string{"fb.unit": fbUnits},
		Sources:   fbSources,
		Check:     true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return res
}

func findInstance(t *testing.T, res *Result, unitName string) *link.Instance {
	t.Helper()
	for _, inst := range res.Program.Instances {
		if inst.Unit.Name == unitName {
			return inst
		}
	}
	t.Fatalf("no instance of unit %s", unitName)
	return nil
}

func runExport(t *testing.T, res *Result, m *machine.M, bundle, sym string) int64 {
	t.Helper()
	global, err := res.Export(bundle, sym)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Run(global)
	if err != nil {
		t.Fatalf("run %s.%s: %v", bundle, sym, err)
	}
	return v
}

func TestSwapFallbackRedirectsCallers(t *testing.T) {
	res := buildFB(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	if got := runExport(t, res, m, "c", "get"); got != 21 {
		t.Fatalf("c.get before swap = %d, want 21", got)
	}

	instB := findInstance(t, res, "B")
	lu, err := res.SwapFallback(m, instB)
	if err != nil {
		t.Fatalf("SwapFallback: %v", err)
	}
	// C's direct call into B now lands in BSafe (a_get()+100), without
	// C being touched.
	if got := runExport(t, res, m, "c", "get"); got != 111 {
		t.Errorf("c.get after swap = %d, want 111", got)
	}
	// So does the top-level export of B's bundle.
	if got := runExport(t, res, m, "b", "get"); got != 110 {
		t.Errorf("b.get after swap = %d, want 110", got)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Fatal(err)
	}

	// Second-level swap: the active instance is now the dynamic BSafe,
	// whose declared fallback is BSafe2. After the swap the superseded
	// BSafe module can be released; the redirects all point at BSafe2.
	lu2, err := res.SwapFallback(m, lu.Instance)
	if err != nil {
		t.Fatalf("second SwapFallback: %v", err)
	}
	if got := runExport(t, res, m, "c", "get"); got != 211 {
		t.Errorf("c.get after second swap = %d, want 211", got)
	}
	if err := lu.ReleaseSuperseded(m); err != nil {
		t.Fatalf("ReleaseSuperseded: %v", err)
	}
	if got := runExport(t, res, m, "c", "get"); got != 211 {
		t.Errorf("c.get after release = %d, want 211", got)
	}
	mods := m.DynModules()
	if len(mods) != 1 || mods[0] != lu2.Name() {
		t.Errorf("live modules = %v, want only %s", mods, lu2.Name())
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapFallbackFailedInitLeavesZeroResidue(t *testing.T) {
	res := buildFB(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()

	in := faultinject.Attach(m)
	defer in.Detach()
	// The fallback instance's renamed initializer name is not knowable
	// in advance, but it always contains the source-level name.
	in.FailEntryMatching("bsafe_init", errBoom)

	_, err := res.SwapFallback(m, findInstance(t, res, "B"))
	var lerr *LifecycleError
	if !errors.As(err, &lerr) {
		t.Fatalf("err = %T (%v), want *LifecycleError", err, err)
	}
	if lerr.Op != "swap" || !lerr.RolledBack || !errors.Is(err, errBoom) {
		t.Errorf("unexpected lifecycle error: %+v", lerr)
	}
	in.Clear()

	if got := runExport(t, res, m, "c", "get"); got != 21 {
		t.Errorf("c.get after failed swap = %d, want 21 (original B)", got)
	}
	if mods := m.DynModules(); len(mods) != 0 {
		t.Errorf("failed swap left modules loaded: %v", mods)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Errorf("invariants after failed swap: %v", err)
	}
	after := m.Snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Error("failed swap left the machine state changed")
	}
}

func TestRestartInstanceResetsStateAndRerunsInits(t *testing.T) {
	res := buildFB(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	runExport(t, res, m, "b", "poke")
	if got := runExport(t, res, m, "c", "get"); got != 1000 {
		t.Fatalf("c.get after poke = %d, want 1000", got)
	}
	if err := res.RestartInstance(m, findInstance(t, res, "B")); err != nil {
		t.Fatalf("RestartInstance: %v", err)
	}
	if got := runExport(t, res, m, "c", "get"); got != 21 {
		t.Errorf("c.get after restart = %d, want 21", got)
	}

	// A failing re-initializer rolls the restart back: the poked state
	// survives, nothing half-restarted remains.
	runExport(t, res, m, "b", "poke")
	in := faultinject.Attach(m)
	defer in.Detach()
	in.FailEntryMatching("b_init", errBoom)
	err := res.RestartInstance(m, findInstance(t, res, "B"))
	var lerr *LifecycleError
	if !errors.As(err, &lerr) || lerr.Op != "restart" || !lerr.RolledBack {
		t.Fatalf("err = %v, want rolled-back restart LifecycleError", err)
	}
	in.Clear()
	if got := runExport(t, res, m, "c", "get"); got != 1000 {
		t.Errorf("c.get after failed restart = %d, want 1000 (rollback)", got)
	}
}

func TestRestartScopeRestartsSubtree(t *testing.T) {
	res := buildFB(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	runExport(t, res, m, "a", "poke")
	runExport(t, res, m, "b", "poke")
	runExport(t, res, m, "c", "poke")
	if err := res.RestartScope(m, "FChain"); err != nil {
		t.Fatalf("RestartScope: %v", err)
	}
	if got := runExport(t, res, m, "c", "get"); got != 21 {
		t.Errorf("c.get after scope restart = %d, want 21", got)
	}
	if err := res.RestartScope(m, "NoSuchScope"); err == nil {
		t.Error("restarting an empty scope succeeded")
	}
}

// TestRunFiniJoinsFailures: every finalizer failure is reachable with
// errors.Is/errors.As through the joined error — no string matching.
func TestRunFiniJoinsFailures(t *testing.T) {
	res := buildChain(t)
	m, _ := probeMachine(res)
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	errA := errors.New("a_fini failed")
	errC := errors.New("c_fini failed")
	in := faultinject.Attach(m)
	defer in.Detach()
	for _, step := range res.Schedule.FinSteps {
		switch step.Func {
		case "a_fini":
			in.FailEntry(step.Global, errA)
		case "c_fini":
			in.FailEntry(step.Global, errC)
		}
	}
	err := res.RunFini(m)
	if err == nil {
		t.Fatal("RunFini succeeded despite failing finalizers")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errC) {
		t.Errorf("joined error loses individual failures: %v", err)
	}
	var lerr *LifecycleError
	if !errors.As(err, &lerr) {
		t.Fatalf("errors.As found no *LifecycleError in %v", err)
	}
	if !strings.Contains(lerr.Error(), "fini") {
		t.Errorf("lifecycle error %q does not mention fini", lerr)
	}
}

// TestSwapFallbackReusesBuildCache: two machines of one Result swapping
// to the same fallback parse its source once and compile it once,
// through the cache the build parsed and compiled through.
func TestSwapFallbackReusesBuildCache(t *testing.T) {
	cache := NewCache()
	res, err := Build(Options{
		Top:       "FChain",
		UnitFiles: map[string]string{"fb.unit": fbUnits},
		Sources:   fbSources,
		Check:     true,
		Cache:     cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	parsed, misses := cache.FrontEnd().Len(), cache.Stats().Misses
	for i := 0; i < 2; i++ {
		m := res.NewMachine()
		if err := res.RunInit(m); err != nil {
			t.Fatal(err)
		}
		if _, err := res.SwapFallback(m, findInstance(t, res, "B")); err != nil {
			t.Fatalf("machine %d: SwapFallback: %v", i, err)
		}
		if got := runExport(t, res, m, "c", "get"); got != 111 {
			t.Errorf("machine %d: c.get after swap = %d, want 111", i, got)
		}
		if got := cache.FrontEnd().Len() - parsed; got != 1 {
			t.Errorf("after machine %d's swap the front end holds %d new files, want 1 (bsafe.c)", i, got)
		}
		if got := cache.Stats().Misses - misses; got != 1 {
			t.Errorf("after machine %d's swap %d translation units compiled, want 1", i, got)
		}
	}
}
