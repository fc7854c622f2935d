package build

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"knit/internal/diag"
	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/link"
	"knit/internal/knit/observe"
	"knit/internal/machine"
)

// The dynamic-boundary fixture: a base kernel with a counter service and
// a blocking lock whose context property records that it may only be
// used from process context (paper §4, §8).
const dynBaseUnits = `
property context
type NoContext
type ProcessContext < NoContext

bundletype Count = { bump, current }
bundletype Lock  = { lock_acquire, lock_release }

unit Counter = {
  exports [ count : Count ];
  initializer count_init for count;
  files { "counter.c" };
}
unit BlockingLock = {
  exports [ lock : Lock ];
  files { "lock.c" };
  constraints { context(lock) = ProcessContext; };
}
unit Base = {
  exports [ count : Count, lock : Lock ];
  link {
    [count] <- Counter <- [];
    [lock] <- BlockingLock <- [];
  };
}
`

var dynBaseSources = link.Sources{
	"counter.c": `
static int n;
void count_init(void) { n = 1000; }
int bump(void) { n++; return n; }
int current(void) { return n; }
`,
	"lock.c": `
static int held;
int lock_acquire(void) { held = 1; return 1; }
int lock_release(void) { held = 0; return 1; }
`,
}

const dynMonitorUnits = `
bundletype Monitor = { sample }
unit MonitorU = {
  imports [ count : Count ];
  exports [ mon : Monitor ];
  initializer mon_init for mon;
  depends { mon needs count; mon_init needs count; };
  files { "monitor.c" };
}
`

var dynMonitorSources = link.Sources{
	"monitor.c": `
int current(void);
static int baseline;
void mon_init(void) { baseline = current(); }
int sample(void) { return current() - baseline; }
`,
}

const dynIrqUnits = `
bundletype Irq = { irq_handle }
unit DynIrq = {
  imports [ lock : Lock ];
  exports [ irq : Irq ];
  depends { irq needs lock; };
  files { "irq.c" };
  constraints {
    context(irq) = NoContext;
    context(exports) <= context(imports);
  };
}
`

var dynIrqSources = link.Sources{
	"irq.c": `
int lock_acquire(void);
int lock_release(void);
int irq_handle(int v) { lock_acquire(); lock_release(); return v; }
`,
}

func buildDynBase(t *testing.T) *Result {
	t.Helper()
	res, err := Build(Options{
		Top:       "Base",
		UnitFiles: map[string]string{"base.unit": dynBaseUnits},
		Sources:   dynBaseSources,
		Check:     true,
	})
	if err != nil {
		t.Fatalf("Build base: %v", err)
	}
	return res
}

// TestDynamicBoundaryConstraintCheck loads a compatible module into a
// live machine, then tries a module whose context constraints conflict
// with the running configuration — which must be rejected at the dynamic
// boundary, before any of its code loads.
func TestDynamicBoundaryConstraintCheck(t *testing.T) {
	res := buildDynBase(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatalf("RunInit: %v", err)
	}
	bump, err := res.Export("count", "bump")
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Run(bump); err != nil {
			t.Fatalf("bump: %v", err)
		}
	}

	// The monitor wires to the live counter and is initialized on load.
	mon, err := res.LoadDynamic(m, DynamicUnit{
		Unit:      "MonitorU",
		UnitFiles: map[string]string{"mon.unit": dynMonitorUnits},
		Sources:   dynMonitorSources,
		Wiring:    map[string]string{"count": "count"},
		Check:     true,
	})
	if err != nil {
		t.Fatalf("LoadDynamic monitor: %v", err)
	}
	for i := 0; i < 3; i++ {
		m.Run(bump)
	}
	sample, err := mon.ExportSymbol("mon", "sample")
	if err != nil {
		t.Fatalf("ExportSymbol: %v", err)
	}
	v, err := m.Run(sample)
	if err != nil {
		t.Fatalf("sample: %v", err)
	}
	if v != 3 {
		t.Errorf("sample() = %d, want 3 (bumps since load)", v)
	}

	// The interrupt module requires NoContext from its import, but the
	// running lock is ProcessContext-only: rejected at the boundary.
	_, err = res.LoadDynamic(m, DynamicUnit{
		Unit:      "DynIrq",
		UnitFiles: map[string]string{"irq.unit": dynIrqUnits},
		Sources:   dynIrqSources,
		Wiring:    map[string]string{"lock": "lock"},
		Check:     true,
	})
	if err == nil {
		t.Fatal("conflicting module was accepted at the dynamic boundary")
	}
	if !strings.Contains(err.Error(), "constraint violation") {
		t.Errorf("rejection error %q does not name the constraint violation", err)
	}

	// The rejected load left the machine untouched: the kernel still runs.
	after, err := m.Run(bump)
	if err != nil {
		t.Fatalf("bump after rejection: %v", err)
	}
	if after != 1009 {
		t.Errorf("counter = %d after rejection, want 1009", after)
	}
}

// TestDynamicUncheckedLoad: the checks are opt-in per load — without
// Check the same conflicting module links fine (and the caller owns the
// consequences, as with the paper's unchecked builds).
func TestDynamicUncheckedLoad(t *testing.T) {
	res := buildDynBase(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatalf("RunInit: %v", err)
	}
	irq, err := res.LoadDynamic(m, DynamicUnit{
		Unit:      "DynIrq",
		UnitFiles: map[string]string{"irq.unit": dynIrqUnits},
		Sources:   dynIrqSources,
		Wiring:    map[string]string{"lock": "lock"},
	})
	if err != nil {
		t.Fatalf("unchecked LoadDynamic: %v", err)
	}
	h, err := irq.ExportSymbol("irq", "irq_handle")
	if err != nil {
		t.Fatalf("ExportSymbol: %v", err)
	}
	if v, err := m.Run(h, 7); err != nil || v != 7 {
		t.Errorf("irq_handle(7) = %d, %v; want 7", v, err)
	}
}

// TestDynamicModuleToModuleWiring chains loads: a second module wires to
// the first loaded module's export, not just to the static base.
func TestDynamicModuleToModuleWiring(t *testing.T) {
	res := buildDynBase(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatalf("RunInit: %v", err)
	}
	if _, err := res.LoadDynamic(m, DynamicUnit{
		Unit:      "MonitorU",
		UnitFiles: map[string]string{"mon.unit": dynMonitorUnits},
		Sources:   dynMonitorSources,
		Wiring:    map[string]string{"count": "count"},
		Check:     true,
	}); err != nil {
		t.Fatalf("LoadDynamic monitor: %v", err)
	}

	// Each dynamic module ships its own interface declarations; Monitor is
	// not in the base registry, so the alarm module redeclares it.
	alarmUnits := `
bundletype Monitor = { sample }
bundletype Alarm = { alarm_over }
unit AlarmU = {
  imports [ mon : Monitor ];
  exports [ alarm : Alarm ];
  depends { alarm needs mon; };
  files { "alarm.c" };
}
`
	alarmSources := link.Sources{
		"alarm.c": `
int sample(void);
int alarm_over(int limit) { return sample() > limit; }
`,
	}
	alarm, err := res.LoadDynamic(m, DynamicUnit{
		Unit:      "AlarmU",
		UnitFiles: map[string]string{"alarm.unit": alarmUnits},
		Sources:   alarmSources,
		Wiring:    map[string]string{"mon": "mon"},
		Check:     true,
	})
	if err != nil {
		t.Fatalf("LoadDynamic alarm: %v", err)
	}
	bump, _ := res.Export("count", "bump")
	for i := 0; i < 4; i++ {
		m.Run(bump)
	}
	over, err := alarm.ExportSymbol("alarm", "alarm_over")
	if err != nil {
		t.Fatalf("ExportSymbol: %v", err)
	}
	if v, err := m.Run(over, 3); err != nil || v != 1 {
		t.Errorf("alarm_over(3) = %d, %v; want 1 (4 bumps since monitor load)", v, err)
	}
	if v, err := m.Run(over, 10); err != nil || v != 0 {
		t.Errorf("alarm_over(10) = %d, %v; want 0", v, err)
	}
}

// loadMonitor links the monitor module into m, wired to the live counter.
func loadMonitor(t *testing.T, res *Result, m *machine.M) *LoadedUnit {
	t.Helper()
	lu, err := res.LoadDynamic(m, DynamicUnit{
		Unit:      "MonitorU",
		UnitFiles: map[string]string{"mon.unit": dynMonitorUnits},
		Sources:   dynMonitorSources,
		Wiring:    map[string]string{"count": "count"},
		Check:     true,
	})
	if err != nil {
		t.Fatalf("LoadDynamic monitor: %v", err)
	}
	return lu
}

// TestRestorePastLoadForgetsModule restores a snapshot taken before a
// LoadDynamic. The machine's module table is the one record of what is
// loaded, so the build layer must see the module gone without being
// told: no lookup finds it, the live program is the static one, a
// program-scope restart does not try to re-run its initializer, and a
// reload gets the module name the first load had.
func TestRestorePastLoadForgetsModule(t *testing.T) {
	res := buildDynBase(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatalf("RunInit: %v", err)
	}
	snap := m.Snapshot()
	first := loadMonitor(t, res, m)
	m.Restore(snap)

	if inst := res.InstanceByPath(m, first.Instance.Path); inst != nil {
		t.Errorf("InstanceByPath(%q) found the restored-away module", first.Instance.Path)
	}
	live := res.LiveProgram(m)
	if !slices.Equal(live.Instances, res.Program.Instances) {
		t.Errorf("live program has %d instances, want the %d static ones",
			len(live.Instances), len(res.Program.Instances))
	}
	if _, ok := live.Exports["mon"]; ok {
		t.Error("live program still exports the restored-away module's bundle")
	}
	if err := res.RestartScope(m, ""); err != nil {
		t.Errorf("RestartScope(\"\") after restore: %v", err)
	}
	if again := loadMonitor(t, res, m); again.Name() != first.Name() {
		t.Errorf("reload named %s, want %s again", again.Name(), first.Name())
	}
}

// TestDynamicRestartKeepsOneLedgerRow restarts a dynamic module under
// an observe collector: its calls, its load and restart initializers,
// and the restart itself must all land on the module's one row, and a
// failed restart must name the module too.
func TestDynamicRestartKeepsOneLedgerRow(t *testing.T) {
	res, err := Build(Options{
		Top:       "Counter",
		UnitFiles: map[string]string{"base.unit": dynBaseUnits},
		Sources:   dynBaseSources,
		Check:     true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := res.NewMachine()
	col := observe.Attach(m)
	res.SetObserver(m, col)
	if err := res.RunInit(m); err != nil {
		t.Fatalf("RunInit: %v", err)
	}
	mon := loadMonitor(t, res, m)
	if mon.Name() != "dynamic/MonitorU#1" {
		t.Fatalf("monitor module is %s, want dynamic/MonitorU#1", mon.Name())
	}
	sample, err := mon.ExportSymbol("mon", "sample")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(sample); err != nil {
		t.Fatalf("sample: %v", err)
	}
	if err := res.RestartInstance(m, mon.Instance); err != nil {
		t.Fatalf("RestartInstance: %v", err)
	}

	var rows []observe.InstanceMetrics
	for _, im := range col.Report().Instances {
		if strings.HasPrefix(im.Path, "dynamic/") {
			rows = append(rows, im)
		}
	}
	if len(rows) != 1 {
		t.Fatalf("monitor ledger rows = %+v, want one", rows)
	}
	row := rows[0]
	if row.Path != mon.Name() || row.Calls != 3 || row.Inits != 2 || row.Restarts != 1 {
		t.Errorf("monitor row %s: calls=%d inits=%d restarts=%d, want %s calls=3 inits=2 restarts=1",
			row.Path, row.Calls, row.Inits, row.Restarts, mon.Name())
	}

	in := faultinject.Attach(m)
	defer in.Detach()
	in.FailEntryMatching("mon_init", errBoom)
	err = res.RestartInstance(m, mon.Instance)
	var lerr *LifecycleError
	if !errors.As(err, &lerr) {
		t.Fatalf("failed restart error = %T (%v), want *LifecycleError", err, err)
	}
	if lerr.Op != "restart" || lerr.Unit != mon.Name() || !lerr.RolledBack {
		t.Errorf("failed restart: op %q unit %q rolledBack %v, want restart/%s/true",
			lerr.Op, lerr.Unit, lerr.RolledBack, mon.Name())
	}
}

const tickerUnits = `
bundletype Tick = { tick }
unit Ticker = {
  exports [ t : Tick ];
  files { "ticker.c" };
}
`

var tickerSources = link.Sources{
	"ticker.c": `
static int n = 7;
int tick(void) { n++; return n; }
`,
}

// TestDynamicRestartResetsData: restarting a dynamically loaded
// instance resets its statics to their initial values, as restarting
// the same unit built statically does, whether the restart names the
// instance or its scope.
func TestDynamicRestartResetsData(t *testing.T) {
	ticks := func(m *machine.M, sym string) []int64 {
		var out []int64
		for i := 0; i < 3; i++ {
			v, err := m.Run(sym)
			if err != nil {
				t.Fatalf("%s: %v", sym, err)
			}
			out = append(out, v)
		}
		return out
	}
	static, err := Build(Options{Top: "Ticker", UnitFiles: map[string]string{"tick.unit": tickerUnits}, Sources: tickerSources})
	if err != nil {
		t.Fatal(err)
	}
	sm := static.NewMachine()
	if err := static.RunInit(sm); err != nil {
		t.Fatal(err)
	}
	ssym, err := static.Export("t", "tick")
	if err != nil {
		t.Fatal(err)
	}
	ticks(sm, ssym)
	if err := static.RestartInstance(sm, static.Program.Instances[0]); err != nil {
		t.Fatal(err)
	}
	want := ticks(sm, ssym)
	if !slices.Equal(want, []int64{8, 9, 10}) {
		t.Fatalf("static Ticker after a restart ticks %v, want [8 9 10]", want)
	}

	res := buildDynBase(t)
	for _, scope := range []bool{false, true} {
		m := res.NewMachine()
		if err := res.RunInit(m); err != nil {
			t.Fatal(err)
		}
		lu, err := res.LoadDynamic(m, DynamicUnit{
			Unit: "Ticker", UnitFiles: map[string]string{"tick.unit": tickerUnits}, Sources: tickerSources,
		})
		if err != nil {
			t.Fatal(err)
		}
		sym, err := lu.ExportSymbol("t", "tick")
		if err != nil {
			t.Fatal(err)
		}
		ticks(m, sym)
		if scope {
			err = res.RestartScope(m, "")
		} else {
			err = res.RestartInstance(m, lu.Instance)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := ticks(m, sym); !slices.Equal(got, want) {
			t.Errorf("dynamic Ticker after a restart (scope %v) ticks %v, static ticks %v", scope, got, want)
		}
	}
}

// TestLoadDynamicRefusesRedefinition: a dynamic unit file may not
// redeclare a unit of the base build. The refusal is a *diag.Error at
// the redeclaration, and nothing loads.
func TestLoadDynamicRefusesRedefinition(t *testing.T) {
	res := buildDynBase(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	src := dynMonitorUnits + "unit Counter = {\n  exports [ count : Count ];\n  files { \"counter.c\" };\n}\n"
	_, err := res.LoadDynamic(m, DynamicUnit{
		Unit:      "MonitorU",
		UnitFiles: map[string]string{"mon.unit": src},
		Sources:   dynMonitorSources,
		Wiring:    map[string]string{"count": "count"},
	})
	if err == nil {
		t.Fatal("a dynamic unit file redefining Counter was accepted")
	}
	if !strings.Contains(err.Error(), `unit "Counter" redefined`) {
		t.Errorf("error %q does not name the redefinition", err)
	}
	line := strings.Count(dynMonitorUnits, "\n") + 1
	var de *diag.Error
	if !errors.As(err, &de) || de.Pos != (diag.Pos{File: "mon.unit", Line: line, Col: 1}) {
		t.Errorf("error %q is not positioned at mon.unit:%d:1", err, line)
	}
	if mods := m.DynModules(); len(mods) != 0 {
		t.Errorf("refused load left modules %v", mods)
	}
}
