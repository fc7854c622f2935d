package supervise

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"knit/internal/diag/diagtest"
	"knit/internal/knit/build"
	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// The supervision fixture mirrors the build package's fallback chain:
// A <- B <- C, with B declaring fallback BSafe. C has no fallback, so
// faults attributed to it exercise the escalation path.
const supUnits = `
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
  depends { b needs a; bsafe_init needs a; };
  files { "bsafe.c" };
  rename { a.get to a_get; b.get to bsafe_get; b.poke to bsafe_poke; };
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

var supSources = link.Sources{
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
	"c.c": `
int b_get(void);
static int state;
void c_init(void) { state = 1; }
int c_get(void) { return b_get() + state; }
void c_poke(void) { state = 444; }
`,
}

func buildSup(t *testing.T) (*build.Result, *machine.M) {
	t.Helper()
	res, err := build.Build(build.Options{
		Top:       "FChain",
		UnitFiles: map[string]string{"sup.unit": supUnits},
		Sources:   supSources,
		Check:     true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	return res, m
}

func instOf(t *testing.T, res *build.Result, unitName string) *link.Instance {
	t.Helper()
	for _, inst := range res.Program.Instances {
		if inst.Unit.Name == unitName {
			return inst
		}
	}
	t.Fatalf("no instance of unit %s", unitName)
	return nil
}

func statusOf(t *testing.T, sup *Supervisor, path string) InstanceStatus {
	t.Helper()
	for _, row := range sup.Report() {
		if row.Path == path {
			return row
		}
	}
	t.Fatalf("no report row for %s", path)
	return InstanceStatus{}
}

// TestRestartsThenDegradesToFallback drives the full policy ladder for a
// unit with a declared fallback: two backoff-restarts, then a swap that
// leaves the system serving through BSafe.
func TestRestartsThenDegradesToFallback(t *testing.T) {
	res, m := buildSup(t)
	in := faultinject.Attach(m)
	defer in.Detach()

	instB := instOf(t, res, "B")
	bGet := instB.ExportSyms["b"]["get"]
	in.TrapCallEvery(bGet, 1) // every call into B faults

	clk := NewFakeClock()
	pol := Default()
	sup := New(res, m, pol, clk)

	// Three calls fail: restart, restart, then swap. The in-flight call
	// is lost each time; recovery readies the next one.
	for i := 0; i < 3; i++ {
		if _, err := sup.Call("c", "get"); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	// After the swap the interposed calls run BSafe's own functions, so
	// the injection keyed to B's symbol no longer fires.
	got, err := sup.Call("c", "get")
	if err != nil {
		t.Fatalf("call after swap: %v", err)
	}
	if got != 111 {
		t.Errorf("c.get after degrade = %d, want 111 (BSafe)", got)
	}

	st := statusOf(t, sup, instB.Path)
	if st.State != Degraded || st.Restarts != 2 || st.Swaps != 1 || st.Failures != 3 {
		t.Errorf("B status = %+v, want degraded after 2 restarts, 1 swap, 3 failures", st)
	}
	if st.ActiveModule == "" || !strings.Contains(st.ActiveModule, "BSafe") {
		t.Errorf("ActiveModule = %q, want a BSafe module", st.ActiveModule)
	}
	for _, row := range sup.Report() {
		if row.Path != instB.Path && row.State != Healthy {
			t.Errorf("%s state = %v, want healthy", row.Path, row.State)
		}
	}
	if !sup.Healthy() {
		t.Error("Healthy() = false with everything serving")
	}

	// Backoff schedule: 10ms then 20ms base, each plus jitter in
	// [0, base/4]; no sleeps for the swap.
	if len(clk.Slept) != 2 {
		t.Fatalf("slept %v, want exactly 2 backoffs", clk.Slept)
	}
	for i, base := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond} {
		if clk.Slept[i] < base || clk.Slept[i] > base+base/4 {
			t.Errorf("backoff %d = %v, want in [%v, %v]", i, clk.Slept[i], base, base+base/4)
		}
	}

	recov := sup.Recoveries()
	if len(recov) != 3 || recov[0].Mode != "restart" || recov[1].Mode != "restart" || recov[2].Mode != "swap" {
		t.Errorf("recoveries = %+v, want restart, restart, swap", recov)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
}

// TestDeviceRefusalIsAttributedAndRestarted: a unit whose C code calls
// the console device with no argument gets the device's refusal as a
// trap attributed to it, on both engines, and the supervisor restarts
// it; the host does not panic.
func TestDeviceRefusalIsAttributedAndRestarted(t *testing.T) {
	res, err := build.Build(build.Options{
		Top: "Box",
		UnitFiles: map[string]string{"noisy.unit": `
bundletype Out = { emit }
unit Noisy = {
  exports [ out : Out ];
  files { "noisy.c" };
}
unit Box = {
  exports [ out : Out ];
  link { [out] <- Noisy <- []; };
}
`},
		Sources: link.Sources{"noisy.c": `
extern int __console_out(void);
int emit(void) { return __console_out(); }
`},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := instOf(t, res, "Noisy")
	emit := inst.ExportSyms["out"]["emit"]
	var traps [2]*machine.Trap
	for i, b := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		m := res.NewMachine()
		m.SetBackend(b)
		machine.InstallConsole(m)
		sup := New(res, m, Default(), NewFakeClock())
		_, err := sup.Call("out", "emit")
		if !errors.As(err, &traps[i]) || traps[i].Msg != "__console_out called with 0 args, want 1" ||
			traps[i].Func != emit || traps[i].Unit != inst.Path {
			t.Fatalf("%v: err = %v, want the console's refusal in %s attributed to %s", b, err, emit, inst.Path)
		}
		if st := statusOf(t, sup, inst.Path); st.Failures != 1 || st.Restarts != 1 {
			t.Errorf("%v: Noisy status = %+v, want 1 failure and 1 restart", b, st)
		}
	}
	if *traps[0] != *traps[1] {
		t.Errorf("engines disagree: interp %+v, compiled %+v", *traps[0], *traps[1])
	}
}

// TestEscalatesScopesThenDies: a unit with no fallback climbs the scope
// ladder — enclosing compound, whole program — and is marked dead when
// the root scope's restart has already been spent.
func TestEscalatesScopesThenDies(t *testing.T) {
	res, m := buildSup(t)
	in := faultinject.Attach(m)
	defer in.Detach()

	instC := instOf(t, res, "C")
	in.TrapCallEvery(instC.ExportSyms["c"]["get"], 1)

	pol := Default()
	pol.MaxRestarts = 0 // straight to escalation
	pol.BaseBackoff = 0
	sup := New(res, m, pol, NewFakeClock())

	modes := []string{"escalate", "escalate"} // FChain scope, then program
	for i, want := range modes {
		if _, err := sup.Call("c", "get"); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
		recov := sup.Recoveries()
		if len(recov) != i+1 || recov[i].Mode != want {
			t.Fatalf("after call %d recoveries = %+v, want mode %s", i, recov, want)
		}
		if st := statusOf(t, sup, instC.Path); st.State != Healthy {
			t.Fatalf("after escalation %d state = %v, want healthy", i, st.State)
		}
	}

	// Scopes are spent: the next fault finds nothing left to widen.
	if _, err := sup.Call("c", "get"); err == nil {
		t.Fatal("call unexpectedly succeeded")
	}
	if st := statusOf(t, sup, instC.Path); st.State != Dead {
		t.Errorf("state = %v, want dead", st.State)
	}
	if sup.Healthy() {
		t.Error("Healthy() = true with a dead instance")
	}
	// Dead means no further intervention: another fault adds no recovery.
	before := len(sup.Recoveries())
	if _, err := sup.Call("c", "get"); err == nil {
		t.Fatal("call unexpectedly succeeded")
	}
	if len(sup.Recoveries()) != before {
		t.Error("supervisor kept intervening for a dead instance")
	}
}

// Watchdog fixture: a unit whose implementation wedges in an infinite
// loop; the fuel watchdog must turn the hang into an attributed trap
// that the normal policy ladder then answers with the fallback.
const wedgeUnits = `
bundletype One = { get }

unit Loop = {
  exports [ l : One ];
  fallback Calm;
  files { "loop.c" };
  rename { l.get to loop_get; };
}
unit Calm = {
  exports [ l : One ];
  files { "calm.c" };
  rename { l.get to calm_get; };
}
unit Wedge = {
  exports [ l : One ];
  link {
    [l] <- Loop <- [];
  };
}
`

var wedgeSources = link.Sources{
	"loop.c": `
int loop_get(void) {
  int x;
  x = 0;
  while (1) { x = x + 1; }
  return x;
}
`,
	"calm.c": `
int calm_get(void) { return 7; }
`,
}

func TestWatchdogTrapsWedgedUnitAndDegrades(t *testing.T) {
	res, err := build.Build(build.Options{
		Top:       "Wedge",
		UnitFiles: map[string]string{"wedge.unit": wedgeUnits},
		Sources:   wedgeSources,
		Check:     true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}

	pol := Default()
	pol.MaxRestarts = 0 // a wedge is not cured by restarting
	pol.WatchdogFuel = 50_000
	sup := New(res, m, pol, NewFakeClock())

	_, err = sup.Call("l", "get")
	if err == nil {
		t.Fatal("wedged call unexpectedly returned")
	}
	trap, ok := err.(*machine.Trap)
	if !ok || trap.Kind != machine.TrapBudgetExhausted {
		t.Fatalf("err = %v, want budget-exhausted trap", err)
	}

	got, err := sup.Call("l", "get")
	if err != nil {
		t.Fatalf("call after degrade: %v", err)
	}
	if got != 7 {
		t.Errorf("get after degrade = %d, want 7 (Calm)", got)
	}
	if st := statusOf(t, sup, instOf(t, res, "Loop").Path); st.State != Degraded {
		t.Errorf("state = %v, want degraded", st.State)
	}
}

// TestBackoffScheduleDeterministic (satellite): the same policy seed and
// fault sequence must reproduce the identical backoff schedule, event
// log, and recovery modes — timestamps included — under the fake clock.
func TestBackoffScheduleDeterministic(t *testing.T) {
	run := func(seed int64) ([]time.Duration, []Event, []RecoveryRecord) {
		res, m := buildSup(t)
		in := faultinject.Attach(m)
		defer in.Detach()
		instB := instOf(t, res, "B")
		in.TrapCallEvery(instB.ExportSyms["b"]["get"], 1)

		clk := NewFakeClock()
		pol := Default()
		pol.JitterSeed = seed
		sup := New(res, m, pol, clk)
		for i := 0; i < 3; i++ {
			sup.Call("c", "get")
		}
		// Strip the variable program-unique symbol suffixes out of the
		// event details before comparing across two separate builds.
		events := append([]Event(nil), sup.Events()...)
		for i := range events {
			events[i].Detail = ""
		}
		return append([]time.Duration(nil), clk.Slept...), events, sup.Recoveries()
	}

	slept1, ev1, rec1 := run(42)
	slept2, ev2, rec2 := run(42)
	if !reflect.DeepEqual(slept1, slept2) {
		t.Errorf("same seed, different backoff schedules:\n%v\n%v", slept1, slept2)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("same seed, different event logs:\n%+v\n%+v", ev1, ev2)
	}
	if !reflect.DeepEqual(rec1, rec2) {
		t.Errorf("same seed, different recoveries:\n%+v\n%+v", rec1, rec2)
	}

	// A different seed shifts at least one jittered backoff.
	slept3, _, _ := run(43)
	if reflect.DeepEqual(slept1, slept3) {
		t.Errorf("seeds 42 and 43 produced the identical jittered schedule %v", slept1)
	}
}

func TestPolicyParse(t *testing.T) {
	pol, err := Parse("p.conf", `
# global knobs
max_restarts = 3
window = 30s
base_backoff = 5ms
max_backoff = 2s
jitter_seed = 42
watchdog_fuel = 1000000

[unit Classifier]
max_restarts = 1
base_backoff = 1ms
`)
	if err != nil {
		t.Fatal(err)
	}
	if pol.MaxRestarts != 3 || pol.Window != 30*time.Second ||
		pol.BaseBackoff != 5*time.Millisecond || pol.MaxBackoff != 2*time.Second ||
		pol.JitterSeed != 42 || pol.WatchdogFuel != 1_000_000 {
		t.Errorf("globals parsed wrong: %+v", pol)
	}
	if pol.restartsFor("Classifier") != 1 || pol.restartsFor("Other") != 3 {
		t.Errorf("per-unit max_restarts override not applied")
	}
	base, max := pol.backoffFor("Classifier")
	if base != time.Millisecond || max != 2*time.Second {
		t.Errorf("Classifier backoff = %v/%v, want 1ms/2s", base, max)
	}

	for _, tc := range badPolicies {
		_, err := Parse("p.conf", tc.text)
		if err == nil {
			t.Errorf("%s: Parse accepted %q", tc.name, tc.text)
			continue
		}
		if got := diagtest.At(t, err, tc.text); got != tc.pos {
			t.Errorf("%s: error %q at %s, want %s", tc.name, err, got, tc.pos)
		}
	}
}

// badPolicies are policy files Parse refuses, with where each error
// points.
var badPolicies = []struct{ name, text, pos string }{
	{"unknown key", "frobnicate = 1\n", "1:1"},
	{"bad duration", "window = soon\n", "1:1"},
	{"negative", "max_restarts = -1\n", "1:1"},
	{"per-unit window", "[unit X]\nwindow = 1s\n", "2:1"},
	{"dup section", "[unit X]\n[unit X]\n", "2:1"},
	{"bad header", "[service X]\n", "1:1"},
	{"no equals", "max_restarts 3\n", "1:1"},
	{"inverted backoff", "base_backoff = 1s\nmax_backoff = 1ms\n", "2:1"},
	{"inverted backoff, max first", "max_backoff = 1ms\nbase_backoff = 1s\n", "1:1"},
	{"inverted default max", "# slow\n  base_backoff = 2s\n", "2:3"},
	{"indented override", "[unit X]\n\tmax_restarts = x # one\n", "2:2"},
}

// FuzzPolicy: any text either parses into a policy whose backoff is not
// inverted, or is refused with an error positioned inside it.
func FuzzPolicy(f *testing.F) {
	committed, err := os.ReadFile("../../../examples/supervise/policy.conf")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(committed))
	for _, tc := range badPolicies {
		f.Add(tc.text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse("fuzz.conf", text)
		if err != nil {
			diagtest.At(t, err, text)
			return
		}
		if p.MaxBackoff < p.BaseBackoff {
			t.Fatalf("accepted an inverted backoff %v < %v", p.MaxBackoff, p.BaseBackoff)
		}
	})
}

func TestStateStringExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for s := State(0); s < numStates; s++ {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "State(") {
			t.Errorf("State(%d) has no name", int(s))
		}
		if seen[name] {
			t.Errorf("duplicate state name %q", name)
		}
		seen[name] = true
	}
	if got := State(99).String(); got != "State(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

// TestWindowPrunesOldFailures: failures older than the policy window do
// not count against the restart budget, so a slow drip of faults keeps
// restarting forever instead of degrading.
func TestWindowPrunesOldFailures(t *testing.T) {
	res, m := buildSup(t)
	in := faultinject.Attach(m)
	defer in.Detach()
	instB := instOf(t, res, "B")
	in.TrapCallEvery(instB.ExportSyms["b"]["get"], 1)

	clk := NewFakeClock()
	pol := Default()
	pol.MaxRestarts = 1
	pol.Window = time.Minute
	pol.BaseBackoff = 0 // no backoff: the fake clock moves only when we say
	sup := New(res, m, pol, clk)

	for i := 0; i < 5; i++ {
		if _, err := sup.Call("c", "get"); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
		clk.T = clk.T.Add(2 * time.Minute) // age the failure out of the window
	}
	st := statusOf(t, sup, instB.Path)
	if st.State != Healthy || st.Restarts != 5 || st.Swaps != 0 {
		t.Errorf("status = %+v, want 5 restarts, no swaps, healthy", st)
	}
}
