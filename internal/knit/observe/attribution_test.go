package observe_test

import (
	"testing"

	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/knit/build"
	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/link"
	"knit/internal/knit/observe"
	"knit/internal/knit/reconfigure"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
	"knit/internal/obj"
)

// The attribution differential: the collector resolves each function
// index's owner once, and must agree with a reference that asks
// m.OwnerOf for every call at the moment it completes, across every
// operation that changes which functions are live. The fixture is the
// chain A <- B <- C, where B falls back to BSafe and BSafe to BSafe2,
// and C can be upgraded live to C2.
func diffUnits(cUnit string) string {
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
  fallback BSafe;
  depends { b needs a; b_init needs a; };
  files { "b.c" };
  rename { a.get to a_get; b.get to b_get; };
}
unit BSafe = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer bsafe_init for b;
  fallback BSafe2;
  depends { b needs a; bsafe_init needs a; };
  files { "bsafe.c" };
  rename { a.get to a_get; b.get to bsafe_get; };
}
unit BSafe2 = {
  imports [ a : Svc ];
  exports [ b : Svc ];
  initializer bsafe2_init for b;
  depends { b needs a; bsafe2_init needs a; };
  files { "bsafe2.c" };
  rename { a.get to a_get; b.get to bsafe2_get; };
}
unit C = {
  imports [ b : Svc ];
  exports [ c : Svc ];
  initializer c_init for c;
  depends { c needs b; };
  files { "c.c" };
  rename { b.get to b_get; c.get to c_get; };
}
unit C2 = {
  imports [ b : Svc ];
  exports [ c : Svc ];
  initializer c2_init for c;
  depends { c needs b; };
  files { "c2.c" };
  rename { b.get to b_get; c.get to c_get; };
}
unit Chain = {
  exports [ c : Svc ];
  link {
    [a] <- A <- [];
    [b] <- B <- [a];
    [c] <- ` + cUnit + ` <- [b];
  };
}
`
}

var diffSources = link.Sources{
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
	"bsafe.c": `
int a_get(void);
static int state;
void bsafe_init(void) { state = a_get() + 100; }
int bsafe_get(void) { return state; }
`,
	"bsafe2.c": `
int a_get(void);
static int state;
void bsafe2_init(void) { state = a_get() + 200; }
int bsafe2_get(void) { return state; }
`,
	"c.c": `
int b_get(void);
static int state;
void c_init(void) { state = 1; }
int c_get(void) { return b_get() + state; }
`,
	"c2.c": `
int b_get(void);
static int state;
void c2_init(void) { state = 2; }
int c_get(void) { return b_get() * 2 + state; }
`,
}

// probeObject is a hand-loaded module the test loads, unloads and
// reloads under different owners: the same symbol names, a new owner.
func probeObject(t *testing.T) *obj.File {
	t.Helper()
	f, err := cmini.Parse("probe.c", "int probe_inc(int x) { return x + 1; }\n"+
		"int probe(int x) { return probe_inc(x) * 3; }\n")
	if err != nil {
		t.Fatal(err)
	}
	o, err := compile.Compile(f, compile.Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// attachWithReference attaches a collector to m and chains behind it a
// reference collector whose calls are keyed by their owner at call
// time: it rewrites each CallInfo's Index to a number per OwnerOf
// answer, so its one-time resolution is exact by construction.
func attachWithReference(m *machine.M) (col, ref *observe.Collector) {
	ref = observe.Attach(m)
	refHook := m.PostCall
	ref.Detach()
	ownerIndex := map[string]int{}
	m.PostCall = func(ci machine.CallInfo) {
		owner := m.OwnerOf(ci.Fn)
		i, ok := ownerIndex[owner]
		if !ok {
			i = len(ownerIndex)
			ownerIndex[owner] = i
		}
		ci.Index = i
		refHook(ci)
	}
	return observe.Attach(m), ref
}

func TestAttributionDifferential(t *testing.T) {
	for _, backend := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		t.Run(backend.String(), func(t *testing.T) { attributionDifferential(t, backend) })
	}
}

func attributionDifferential(t *testing.T, backend machine.Backend) {
	res, err := build.Build(build.Options{
		Top:       "Chain",
		UnitFiles: map[string]string{"chain.unit": diffUnits("C")},
		Sources:   diffSources,
		Check:     true,
		Backend:   backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.NewMachine()
	col, ref := attachWithReference(m)
	res.SetObserver(m, col)
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	cGet, err := res.Export("c", "get")
	if err != nil {
		t.Fatal(err)
	}
	run := func(sym string, arg ...int64) {
		t.Helper()
		if _, err := m.Run(sym, arg...); err != nil {
			t.Fatalf("%s: %v", sym, err)
		}
	}

	// Supervised restarts, then the swap to BSafe; faulting BSafe in turn
	// swaps to BSafe2 and releases (unloads) BSafe.
	in := faultinject.Attach(m)
	sup := supervise.New(res, m, supervise.Default(), supervise.NewFakeClock())
	sup.Observe(col)
	instOf := func(unit string) *link.Instance {
		t.Helper()
		for _, inst := range res.LiveProgram(m).Instances {
			if inst.Unit.Name == unit {
				return inst
			}
		}
		t.Fatalf("no live instance of %s", unit)
		return nil
	}
	superviseUntil := func(action string) {
		t.Helper()
		for i := 0; i < 10; i++ {
			sup.Call("c", "get")
			for _, ev := range sup.Events() {
				if ev.Action == action {
					return
				}
			}
		}
		t.Fatalf("no %q event after 10 supervised calls: %+v", action, sup.Events())
	}
	in.TrapCallEvery(instOf("B").ExportSyms["b"]["get"], 1)
	superviseUntil("swap")
	in.TrapCallEvery(instOf("BSafe").ExportSyms["b"]["get"], 1)
	superviseUntil("release")
	in.Detach()
	for i := 0; i < 3; i++ {
		if _, err := sup.Call("c", "get"); err != nil {
			t.Fatalf("call after release: %v", err)
		}
	}
	if mods := m.DynModules(); len(mods) != 1 {
		t.Fatalf("live modules after release = %v, want BSafe2's alone", mods)
	}

	// A hand-loaded module: load, unload, and reload the same symbols
	// under another owner, then Restore past a load of a third owner.
	probe := probeObject(t)
	for _, owner := range []string{"Probe/One#1", "Probe/Two#2"} {
		if err := m.LoadDynamicAs("probe", owner, probe); err != nil {
			t.Fatal(err)
		}
		run("probe", 4)
		if err := m.UnloadDynamic("probe"); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if err := m.LoadDynamicAs("probe", "Probe/Three#3", probe); err != nil {
		t.Fatal(err)
	}
	run("probe", 5)
	m.Restore(snap)
	if err := m.LoadDynamicAs("probe", "Probe/Four#4", probe); err != nil {
		t.Fatal(err)
	}
	run("probe", 6)
	if err := m.UnloadDynamic("probe"); err != nil {
		t.Fatal(err)
	}

	// A live upgrade of C to C2, rolled back (a Restore past its load)
	// and applied again.
	plan, err := reconfigure.Diff(res, reconfigure.Target{
		Top:       "Chain",
		UnitFiles: map[string]string{"chain.unit": diffUnits("C2")},
		Sources:   diffSources,
		Check:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		applied, err := plan.Apply(m, nil)
		if err != nil {
			t.Fatalf("upgrade %d: %v", i, err)
		}
		run(cGet)
		if i == 0 {
			applied.Rollback()
			run(cGet)
		}
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Fatal(err)
	}

	got, want := ledgers(col.Report()), ledgers(ref.Report())
	live := m.DynModules() // BSafe2 and the upgraded C2
	for _, path := range append([]string{"Probe/One#1", "Probe/Two#2", "Probe/Three#3", "Probe/Four#4"}, live...) {
		if want[path].Calls == 0 {
			t.Errorf("reference saw no calls for %s", path)
		}
	}
	var traps uint64
	for path, w := range want {
		traps += w.TrapTotal()
		if g := got[path]; g != w {
			t.Errorf("%s: collector %+v, reference %+v", path, g, w)
		}
	}
	for path, g := range got {
		if _, ok := want[path]; !ok && (g.Calls != 0 || g.TrapTotal() != 0) {
			t.Errorf("%s: collector attributed %+v, reference nothing", path, g)
		}
	}
	if traps == 0 {
		t.Error("reference saw no traps")
	}
}

// ledgers keys a report's call, cycle, histogram and trap counters by
// instance path; lifecycle counters are left out, since only the
// collector is the build layer's observer.
func ledgers(r *observe.Report) map[string]observe.InstanceMetrics {
	out := map[string]observe.InstanceMetrics{}
	for _, im := range r.Instances {
		out[im.Path] = observe.InstanceMetrics{
			Path: im.Path, Calls: im.Calls, Cycles: im.Cycles, Hist: im.Hist, Traps: im.Traps,
		}
	}
	return out
}
