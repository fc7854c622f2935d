package assemble_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"knit/internal/knit/assemble"
	"knit/internal/machine"
	"knit/internal/oskit"
)

// enumeration renders everything an Enumerate call returns that a
// caller can observe: each assembly's name, units, cost and text, in
// order, then the error text.
func enumeration(asms []*assemble.Assembly, err error) string {
	var b strings.Builder
	for _, a := range asms {
		fmt.Fprintf(&b, "%s %v %v\n%s\n", a.Name, a.Units, a.Cost, a.Text)
	}
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	return b.String()
}

// enumerateRun is one Enumerate call to compare across worker counts.
type enumerateRun struct {
	name string
	goal *assemble.Goal
	k    int
	opts assemble.Options
}

// enumerateRuns covers every committed goal at the CLI's -enumerate 12,
// the unsatisfiable table, and a raw budget that cuts main.goal short.
func enumerateRuns(t *testing.T) []enumerateRun {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "assemble", "src", "*.goal"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("committed goals: %v (%d found)", err, len(paths))
	}
	var runs []enumerateRun
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := assemble.ParseGoal(filepath.Base(path), string(data))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, enumerateRun{filepath.Base(path), g, 12, assemble.Options{}})
		if filepath.Base(path) == "main.goal" {
			runs = append(runs, enumerateRun{"main.goal RawBudget 3", g, 12, assemble.Options{RawBudget: 3}})
		}
	}
	for _, tc := range unsatGoals {
		runs = append(runs, enumerateRun{tc.name, mustParse(t, tc.goal), 1, smallOpts})
	}
	return runs
}

// TestEnumerateWorkersAgree: verifying candidates on four workers while
// the search runs ahead returns exactly what verifying them one at a
// time does — the same assemblies in the same order with the same
// costs, and the same error, down to which blocker explains an
// unsatisfiable goal.
func TestEnumerateWorkersAgree(t *testing.T) {
	repo := oskit.Repository()
	for _, r := range enumerateRuns(t) {
		one := enumeration(assemble.EnumerateWorkers(repo, r.goal, r.k, r.opts, 1))
		four := enumeration(assemble.EnumerateWorkers(repo, r.goal, r.k, r.opts, 4))
		if one != four {
			t.Errorf("%s: four workers returned\n%s\none worker returned\n%s", r.name, four, one)
		}
	}
}

// TestEnumerateLeavesNoGoroutines: Enumerate returns only after every
// verification it started has ended, whether it found assemblies, ran
// out of budget or proved the goal unsatisfiable.
func TestEnumerateLeavesNoGoroutines(t *testing.T) {
	repo := oskit.Repository()
	before := runtime.NumGoroutine()
	for _, r := range enumerateRuns(t) {
		assemble.EnumerateWorkers(repo, r.goal, r.k, r.opts, 4)
	}
	// A goroutine that has signalled its end may not have exited yet.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 10000 {
			t.Fatalf("%d goroutines after Enumerate, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// liveHeap is the heap in use once everything unreachable is collected.
// The second collection frees what sync.Pools held through the first,
// released machines' memory included, so the pools are not counted.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEnumerateRetainsOnlyItsAssemblies: no verification machine
// outlives Enumerate, and each image keeps only its nonzero initial
// words, so the 12 assemblies it returns for main.goal retain under
// 1.25 MB of heap (0.84 MB; 1.78 MB while each image kept its dense
// initial data, 10.0 MB while each Result kept the half-megabyte
// machine its init schedule ran on), and each Result still builds a
// machine whose init schedule takes the cycles its Cost records.
func TestEnumerateRetainsOnlyItsAssemblies(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "examples", "assemble", "src", "main.goal"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := assemble.ParseGoal("main.goal", string(data))
	if err != nil {
		t.Fatal(err)
	}
	repo := oskit.Repository()
	before := liveHeap()
	asms, err := assemble.Enumerate(repo, g, 12, assemble.Options{})
	retained := liveHeap() - before
	if err != nil {
		t.Fatal(err)
	}
	if len(asms) != 12 {
		t.Fatalf("main.goal enumerated %d assemblies, want 12", len(asms))
	}
	t.Logf("12 assemblies retain %.2f MB", float64(retained)/1e6)
	if retained >= 1.25e6 {
		t.Errorf("12 assemblies retain %.2f MB of heap, want under 1.25 MB", float64(retained)/1e6)
	}
	for _, a := range asms {
		m := a.Result.NewMachine()
		machine.InstallConsole(m)
		machine.InstallSerial(m)
		machine.InstallStopWatch(m)
		if err := a.Result.RunInit(m); err != nil {
			t.Fatalf("%s: %v", a.Units, err)
		}
		if m.Cycles != a.Cost.InitCycles {
			t.Errorf("%s: init takes %d cycles on a new machine, Cost records %d", a.Units, m.Cycles, a.Cost.InitCycles)
		}
		a.Result.Forget(m)
	}
}
