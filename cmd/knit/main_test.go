package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"knit/internal/knit/assemble"
	"knit/internal/knit/build"
	"knit/internal/knit/link"
	"knit/internal/machine"
	"knit/internal/oskit"
)

// TestCLIEndToEnd drives the same path the knit command does, against
// the on-disk testdata: read unit file, load referenced sources, build,
// run.
func TestCLIEndToEnd(t *testing.T) {
	dir := filepath.Join("testdata", "webserver")
	unitPath := filepath.Join(dir, "web.unit")
	data, err := os.ReadFile(unitPath)
	if err != nil {
		t.Fatal(err)
	}
	unitFiles := map[string]string{unitPath: string(data)}
	cache := build.NewCache()
	sources, err := loadSources(cache.FrontEnd(), unitFiles, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"web.c", "log.c", "driver.c", "stdio.c",
		"serve_file.c", "serve_cgi.c"} {
		if _, ok := sources[want]; !ok {
			t.Errorf("loadSources missing %q", want)
		}
	}
	res, err := build.Build(build.Options{
		Top:       "LogServe",
		UnitFiles: unitFiles,
		Sources:   sources,
		Check:     true,
		Cache:     cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.NewMachine()
	con := machine.InstallConsole(m)
	v, err := res.Run(m, "main", "run", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 200 {
		t.Errorf("run(0) = %d, want 200", v)
	}
	out := con.String()
	if !strings.Contains(out, "F") || !strings.Contains(out, "/index.html") ||
		!strings.HasSuffix(out, "<eof>") {
		t.Errorf("console = %q", out)
	}

	// The -time breakdown renders every phase with its share.
	var b strings.Builder
	printTimings(&b, res.Timings)
	rendered := b.String()
	for _, phase := range []string{"parse", "elaborate", "check", "schedule",
		"flatten", "compile", "link", "load", "knit-proper", "compile cache"} {
		if !strings.Contains(rendered, phase) {
			t.Errorf("printTimings output missing %q:\n%s", phase, rendered)
		}
	}
}

// TestCLICacheAndJobs drives the -cache / -j path: a disk cache in a
// temp directory, a cold build, then a warm build from a fresh Cache
// over the same directory, all at -j 8 — the byte-identical object is
// the CLI-level version of the differential equivalence suite.
func TestCLICacheAndJobs(t *testing.T) {
	dir := filepath.Join("testdata", "webserver")
	unitPath := filepath.Join(dir, "web.unit")
	data, err := os.ReadFile(unitPath)
	if err != nil {
		t.Fatal(err)
	}
	unitFiles := map[string]string{unitPath: string(data)}
	sources, err := loadSources(new(link.FrontEnd), unitFiles, dir)
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	buildWith := func(jobs int) *build.Result {
		t.Helper()
		cache, err := build.OpenCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := build.Build(build.Options{
			Top:         "LogServe",
			UnitFiles:   unitFiles,
			Sources:     sources,
			Check:       true,
			Cache:       cache,
			Parallelism: jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := buildWith(8)
	if cold.Timings.CacheHits != 0 {
		t.Errorf("cold CLI build reported %d hits", cold.Timings.CacheHits)
	}
	warm := buildWith(8)
	if warm.Timings.CacheHits != warm.Timings.CompileJobs {
		t.Errorf("warm CLI build hit %d of %d jobs, want all (disk cache)",
			warm.Timings.CacheHits, warm.Timings.CompileJobs)
	}
	if !reflect.DeepEqual(warm.Image.FuncAddr, cold.Image.FuncAddr) ||
		warm.Image.TextSize != cold.Image.TextSize {
		t.Error("warm image layout differs from cold")
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("-cache directory is empty after a build")
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".knitobj") {
			t.Errorf("unexpected cache entry %q", e.Name())
		}
	}
}

// TestCLIFuelBudget is the -fuel flag's path: a machine with a small
// instruction budget must stop the webserver run with a budget trap
// attributed to a unit instance, instead of running to completion.
func TestCLIFuelBudget(t *testing.T) {
	dir := filepath.Join("testdata", "webserver")
	unitPath := filepath.Join(dir, "web.unit")
	data, err := os.ReadFile(unitPath)
	if err != nil {
		t.Fatal(err)
	}
	unitFiles := map[string]string{unitPath: string(data)}
	sources, err := loadSources(new(link.FrontEnd), unitFiles, dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := build.Build(build.Options{
		Top:       "LogServe",
		UnitFiles: unitFiles,
		Sources:   sources,
		Check:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.NewMachine()
	m.Fuel = 40 // far less than the webserver run needs
	machine.InstallConsole(m)
	_, err = res.Run(m, "main", "run", 0)
	if err == nil {
		t.Fatal("run completed inside a 40-instruction fuel budget")
	}
	var trap *machine.Trap
	if !errors.As(err, &trap) {
		t.Fatalf("err = %T, want a machine trap: %v", err, err)
	}
	if trap.Kind != machine.TrapBudgetExhausted {
		t.Errorf("trap kind = %v, want TrapBudgetExhausted", trap.Kind)
	}
	if !strings.Contains(err.Error(), "fuel budget") || !strings.Contains(err.Error(), "unit ") {
		t.Errorf("error %q lacks fuel/unit attribution", err)
	}
	// With the budget lifted, the same program runs to completion.
	m2 := res.NewMachine()
	machine.InstallConsole(m2)
	if v, err := res.Run(m2, "main", "run", 0); err != nil || v != 200 {
		t.Errorf("unbudgeted run = %d, %v; want 200", v, err)
	}
}

// TestAssembleCLIEndToEnd drives the -assemble path the knit command
// takes against the committed goal specs: parse the goal, search the
// built-in oskit repository, emit the winning .unit to a directory, and
// run the assembled kernel.
func TestAssembleCLIEndToEnd(t *testing.T) {
	goalPath := filepath.Join("..", "..", "examples", "assemble", "src", "hello.goal")
	data, err := os.ReadFile(goalPath)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := assemble.ParseGoal(goalPath, string(data))
	if err != nil {
		t.Fatal(err)
	}
	best, err := assemble.Assemble(oskit.Repository(), goal, assemble.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	emitAssembly(dir, best.Name+".unit", best.Text)
	emitted, err := os.ReadFile(filepath.Join(dir, best.Name+".unit"))
	if err != nil {
		t.Fatal(err)
	}
	if string(emitted) != best.Text {
		t.Fatal("emitted file does not match the assembly text")
	}
	m := best.Result.NewMachine()
	machine.InstallConsole(m)
	ser := machine.InstallSerial(m)
	machine.InstallStopWatch(m)
	v, err := best.Result.Run(m, "main", "kmain", 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Errorf("assembled HelloMain kmain(5) = %d, want 10", v)
	}
	if !strings.Contains(ser.String(), "hello") {
		t.Errorf("serial output %q lacks greeting (goal requires SerialDev)", ser.String())
	}
}

// TestAssembleCLIUnsatExplains mirrors `knit -assemble` on the
// committed unsatisfiable goal: the driver must surface the blocking
// constraint, not a wiring.
func TestAssembleCLIUnsatExplains(t *testing.T) {
	goalPath := filepath.Join("..", "..", "examples", "assemble", "src", "badirq.goal")
	data, err := os.ReadFile(goalPath)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := assemble.ParseGoal(goalPath, string(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = assemble.Assemble(oskit.Repository(), goal, assemble.Options{})
	var unsat *assemble.UnsatError
	if !errors.As(err, &unsat) {
		t.Fatalf("want UnsatError, got %v", err)
	}
	if !strings.Contains(unsat.Error(), "context") {
		t.Errorf("explanation %q does not name the context constraint", unsat.Error())
	}
}

// TestAssembleCostsIgnoreBackend: -backend picks the engine of -run and
// nothing else. knit -assemble prints the same costs under both
// engines, priced on the interpreter, while -run of the best assembly
// executes the same instructions in fewer cycles on the compiled
// engine, which has no fetch model.
func TestAssembleCostsIgnoreBackend(t *testing.T) {
	goals := filepath.Join("..", "..", "examples", "assemble", "src")
	timing := regexp.MustCompile(` in [0-9.]+[a-zµ]+`)
	assembleOut := func(goal string, k int, run string, be machine.Backend) string {
		return timing.ReplaceAllString(captureStdout(t, func() {
			runAssemble(filepath.Join(goals, goal), true, "", k, "", run, 5, be)
		}), "")
	}
	for _, goal := range []string{"main.goal", "worker.goal"} {
		interp := assembleOut(goal, 12, "", machine.BackendInterp)
		if compiled := assembleOut(goal, 12, "", machine.BackendCompiled); compiled != interp {
			t.Errorf("%s: costs depend on the backend\ninterp:\n%s\ncompiled:\n%s", goal, interp, compiled)
		}
	}

	runLine := regexp.MustCompile(`\[(\d+) cycles, (\d+) instructions\]\n$`)
	interp := assembleOut("hello.goal", 0, "main.kmain", machine.BackendInterp)
	compiled := assembleOut("hello.goal", 0, "main.kmain", machine.BackendCompiled)
	ri, rc := runLine.FindStringSubmatch(interp), runLine.FindStringSubmatch(compiled)
	if ri == nil || rc == nil {
		t.Fatalf("no run line in\n%s\nor\n%s", interp, compiled)
	}
	if strings.TrimSuffix(interp, ri[0]) != strings.TrimSuffix(compiled, rc[0]) {
		t.Errorf("assembly differs by backend\ninterp:\n%s\ncompiled:\n%s", interp, compiled)
	}
	ci, _ := strconv.Atoi(ri[1])
	cc, _ := strconv.Atoi(rc[1])
	if ri[2] != rc[2] || cc >= ci {
		t.Errorf("-run: interp %s cycles %s instructions, compiled %s cycles %s instructions; want the same instructions in fewer cycles",
			ri[1], ri[2], rc[1], rc[2])
	}
}

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return <-out
}
