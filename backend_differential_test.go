// Backend differential equivalence tests: the compiled backend
// (internal/machine.BackendCompiled) is a pure execution accelerator,
// so for every system shipped in the repo — each .unit fixture under
// examples/ and cmd/knit/testdata/, the Clack router, and the
// OSKit-style kernels — running under the compiled backend must be
// observationally identical to the reference interpreter: the same
// values, console and serial output, trap identities (kind, function,
// pc, unit attribution), init/fini lifecycle event sequences,
// instruction and call counts, and final memory image.
//
// The one sanctioned difference is cycle accounting: the compiled
// backend does not model instruction fetch, so its Cycles must equal
// the interpreter's Cycles minus the interpreter's Stalls, and its own
// stall and I-cache counters must stay zero. Raw cycles and
// stopwatch-derived metrics are therefore never compared directly
// across backends.
//
// Fixture discovery is shared with differential_test.go
// (discoverUnitFixtures), so adding an example adds it to this suite
// too.
package knit

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/machine"
	"knit/internal/oskit"
)

// backendFuel bounds every export run. It is far above what any fixture
// needs, and a fixture that does exhaust it must trap at the same call
// under both backends — fuel parity is part of the contract.
const backendFuel = 5_000_000

// lifecycleRecorder captures the build layer's init/fini event stream
// for one machine, so the schedules' execution (not just their static
// order) is compared across backends.
type lifecycleRecorder struct{ events []string }

func (r *lifecycleRecorder) LifecycleEvent(instance, op string) {
	r.events = append(r.events, op+" "+instance)
}

// fmtBackendErr renders an error for cross-backend comparison. Traps
// collapse to their stable identity — kind, function, pc, and unit
// attribution — which is exactly what the backend contract promises to
// preserve.
func fmtBackendErr(err error) string {
	if err == nil {
		return "ok"
	}
	var tr *machine.Trap
	if errors.As(err, &tr) {
		return fmt.Sprintf("trap[%v] in %s+%d unit %q: %s", tr.Kind, tr.Func, tr.PC, tr.Unit, tr.Msg)
	}
	return "error: " + err.Error()
}

// backendTrace executes one built system start to finish — init
// schedule, every exported symbol of every top-level bundle in sorted
// order, fini schedule — and records each backend-independent
// observable as one line. The machine is returned for the counter and
// memory comparisons that do not fit the line format.
func backendTrace(t *testing.T, res *build.Result, backend machine.Backend) ([]string, *machine.M) {
	t.Helper()
	res.Backend = backend
	m := res.NewMachine()
	m.Fuel = backendFuel
	con := machine.InstallConsole(m)
	ser := machine.InstallSerial(m)
	machine.InstallStopWatch(m)
	rec := &lifecycleRecorder{}
	res.SetObserver(m, rec)

	var lines []string
	add := func(format string, a ...any) { lines = append(lines, fmt.Sprintf(format, a...)) }

	add("init: %s", fmtBackendErr(res.RunInit(m)))
	var bundles []string
	for b := range res.Program.Exports {
		bundles = append(bundles, b)
	}
	sort.Strings(bundles)
	for _, b := range bundles {
		w := res.Program.Exports[b]
		syms := w.Provider.ExportSyms[w.Bundle]
		var names []string
		for s := range syms {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			global := syms[s]
			// Small positive arguments: enough to drive iteration-count
			// style entry points a few laps without long runs.
			var args []int64
			if fn := m.Img.Entry[global]; fn != nil {
				args = make([]int64, fn.NArgs)
				for i := range args {
					args[i] = 3
				}
			}
			v, err := m.Run(global, args...)
			add("run %s.%s%v = %d, %s", b, s, args, v, fmtBackendErr(err))
		}
	}
	add("fini: %s", fmtBackendErr(res.RunFini(m)))
	add("events: %v", rec.events)
	add("console: %q", con.String())
	add("serial: %q", ser.String())
	add("counters: executed=%d calls=%d indcalls=%d builtins=%d",
		m.Executed, m.Calls, m.IndCalls, m.BuiltinCnt)
	return lines, m
}

// assertBackendMachines checks the machine-level halves of the backend
// contract after two equivalent runs: identical memory images, and the
// cycle identity Cycles(compiled) == Cycles(interp) − Stalls(interp)
// with the compiled fetch model fully off.
func assertBackendMachines(t *testing.T, mi, mc *machine.M) {
	t.Helper()
	if mc.Stalls != 0 || mc.ICacheRefs != 0 || mc.ICacheMiss != 0 {
		t.Errorf("compiled backend ran the fetch model: stalls=%d refs=%d misses=%d",
			mc.Stalls, mc.ICacheRefs, mc.ICacheMiss)
	}
	if mc.Cycles != mi.Cycles-mi.Stalls {
		t.Errorf("cycle identity broken: compiled %d, interp %d − %d stalls = %d",
			mc.Cycles, mi.Cycles, mi.Stalls, mi.Cycles-mi.Stalls)
	}
	if len(mi.Mem) != len(mc.Mem) {
		t.Fatalf("memory sizes differ: interp %d, compiled %d", len(mi.Mem), len(mc.Mem))
	}
	for a := range mi.Mem {
		if mi.Mem[a] != mc.Mem[a] {
			t.Fatalf("memory diverges at address %d: interp %d, compiled %d", a, mi.Mem[a], mc.Mem[a])
		}
	}
}

// assertBackendAgreement builds one configuration twice (builds are
// deterministic; differential_test.go pins that separately), runs the
// full trace under each backend, and diffs every observable.
func assertBackendAgreement(t *testing.T, buildFn func() (*build.Result, error)) {
	t.Helper()
	resI, err := buildFn()
	if err != nil {
		t.Fatalf("interp build: %v", err)
	}
	resC, err := buildFn()
	if err != nil {
		t.Fatalf("compiled build: %v", err)
	}
	li, mi := backendTrace(t, resI, machine.BackendInterp)
	lc, mc := backendTrace(t, resC, machine.BackendCompiled)
	for i := 0; i < len(li) || i < len(lc); i++ {
		get := func(l []string) string {
			if i < len(l) {
				return l[i]
			}
			return "<missing>"
		}
		if get(li) != get(lc) {
			t.Errorf("trace line %d:\n  interp:   %s\n  compiled: %s", i, get(li), get(lc))
		}
	}
	assertBackendMachines(t, mi, mc)
}

// TestBackendDifferentialUnitFiles covers every buildable root of every
// .unit file under examples/ and cmd/knit/testdata/, in both modular
// and flattened-optimized form.
func TestBackendDifferentialUnitFiles(t *testing.T) {
	for _, fx := range discoverUnitFixtures(t, "examples", filepath.Join("cmd", "knit", "testdata")) {
		fx := fx
		if len(fx.roots) == 0 {
			continue // dynamic-module files; covered by the machine-level fuzzers
		}
		t.Run(fx.name, func(t *testing.T) {
			for _, root := range fx.roots {
				root := root
				t.Run(root, func(t *testing.T) {
					assertBackendAgreement(t, func() (*build.Result, error) {
						return build.Build(build.Options{
							Top: root, UnitFiles: fx.unitFiles, Sources: fx.sources,
						})
					})
				})
				t.Run(root+"/flattened", func(t *testing.T) {
					assertBackendAgreement(t, func() (*build.Result, error) {
						return build.Build(build.Options{
							Top: root, UnitFiles: fx.unitFiles, Sources: fx.sources,
							Optimize: true, Flatten: true,
						})
					})
				})
			}
		})
	}
}

// TestBackendDifferentialClackRouter streams the default traffic mix
// through the router under both backends and compares everything the
// simulated NICs observed: per-device receive and transmit counts,
// drops, TTL-checked transmissions, and malformed-transmission reports
// — plus the standard machine-level contract. Stopwatch-derived
// cycles-per-packet are deliberately not compared; the fetch model
// difference makes them backend-specific by design.
func TestBackendDifferentialClackRouter(t *testing.T) {
	for _, v := range []clack.Variant{{}, {Flattened: true}} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			run := func(backend machine.Backend) (*clack.Measurement, *machine.M) {
				res, err := clack.BuildRouter(v)
				if err != nil {
					t.Fatalf("%v build: %v", backend, err)
				}
				res.Backend = backend
				var m *machine.M
				meas, err := clack.RunRouterWith(res, clack.DefaultTraffic(600),
					func(mm *machine.M) { m = mm })
				if err != nil {
					t.Fatalf("%v run: %v", backend, err)
				}
				return meas, m
			}
			mi2, mi := run(machine.BackendInterp)
			mc2, mc := run(machine.BackendCompiled)
			if !reflect.DeepEqual(mi2.Stats, mc2.Stats) {
				t.Errorf("device stats differ:\n  interp:   %+v\n  compiled: %+v", mi2.Stats, mc2.Stats)
			}
			if mi2.Forwarded != mc2.Forwarded || mi2.Dropped != mc2.Dropped || mi2.Packets != mc2.Packets {
				t.Errorf("packet outcomes differ: interp fwd=%d drop=%d n=%d, compiled fwd=%d drop=%d n=%d",
					mi2.Forwarded, mi2.Dropped, mi2.Packets, mc2.Forwarded, mc2.Dropped, mc2.Packets)
			}
			if mi.Executed != mc.Executed || mi.Calls != mc.Calls ||
				mi.IndCalls != mc.IndCalls || mi.BuiltinCnt != mc.BuiltinCnt {
				t.Errorf("counters differ: interp exec=%d calls=%d ind=%d bi=%d, compiled exec=%d calls=%d ind=%d bi=%d",
					mi.Executed, mi.Calls, mi.IndCalls, mi.BuiltinCnt,
					mc.Executed, mc.Calls, mc.IndCalls, mc.BuiltinCnt)
			}
			assertBackendMachines(t, mi, mc)
		})
	}
}

// TestBackendDifferentialOskitKernels runs the OSKit-style kernel
// configurations through the full trace comparison.
func TestBackendDifferentialOskitKernels(t *testing.T) {
	for _, top := range []string{"FsKernel", "BigKernel"} {
		top := top
		t.Run(top, func(t *testing.T) {
			assertBackendAgreement(t, func() (*build.Result, error) {
				return oskit.BuildKernel(top, build.Options{Optimize: true})
			})
		})
	}
}
