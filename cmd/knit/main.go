// Command knit is the Knit compiler driver: it reads unit-definition
// files and the cmini sources they reference, links the requested top
// unit, checks constraints, schedules initializers, and either reports
// on the build or executes an exported function on the simulated
// machine.
//
// Usage:
//
//	knit -top Kernel [-run bundle.symbol [-arg N]] [flags] file.unit...
//	knit -assemble -goal spec.goal [-enumerate K] [-emit-dir DIR] (-oskit | file.unit...)
//
// Source files named by units' files{} sections are read from the
// directory given by -src (default: the directory of the first unit
// file).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"knit/internal/asm"
	"knit/internal/knit/assemble"
	"knit/internal/knit/build"
	"knit/internal/knit/link"
	"knit/internal/knit/observe"
	"knit/internal/knit/reconfigure"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
	"knit/internal/oskit"
)

func main() {
	var (
		top       = flag.String("top", "", "top unit to build (required)")
		srcDir    = flag.String("src", "", "directory for C sources (default: unit file directory)")
		run       = flag.String("run", "", "exported function to execute, as bundle.symbol")
		arg       = flag.Int64("arg", 0, "argument passed to the executed function")
		fuel      = flag.Int64("fuel", 0, "instruction budget per machine run; a component exceeding it traps instead of hanging (0 = unlimited)")
		backendF  = flag.String("backend", "", "execution backend for -run: interp (reference, default) or compiled (pre-decoded micro-ops, faster, no fetch model)")
		check     = flag.Bool("check", true, "run the constraint checker")
		optimize  = flag.Bool("O", false, "enable the optimizer")
		flatten   = flag.Bool("flatten", false, "flatten all units before compiling")
		cacheDir  = flag.String("cache", "", "directory for the content-hash compile cache (empty = memory only)")
		jobs      = flag.Int("j", 0, "parallel compile jobs (0 = one per CPU)")
		upgradeF  = flag.String("upgrade", "", "with -run, after the first call live-reconfigure to this target unit file (diff, rewire, re-run; the upgraded result is checked against a cold build of the target)")
		supFlag   = flag.Bool("supervise", false, "run -run under the self-healing supervisor (restart/fallback/escalate per policy)")
		policy    = flag.String("policy", "", "supervision policy file (default: built-in policy)")
		calls     = flag.Int("calls", 1, "with -supervise, number of supervised calls to drive")
		metrics   = flag.Bool("metrics", false, "with -run, attribute calls/cycles/traps to unit instances and print the per-instance report")
		traceOut  = flag.String("trace", "", "with -run, write a JSON-lines call trace (most recent spans) to this file")
		assembleF = flag.Bool("assemble", false, "goal-directed assembly: search the unit repository for the cheapest wiring satisfying -goal")
		goalF     = flag.String("goal", "", "goal-spec file for -assemble")
		enumFlag  = flag.Int("enumerate", 0, "with -assemble, stream the top-K distinct satisfying assemblies instead of running the best")
		emitDir   = flag.String("emit-dir", "", "with -assemble, write each generated .unit assembly into this directory")
		oskitRepo = flag.Bool("oskit", false, "with -assemble, search the built-in oskit unit repository (no unit files needed)")
		schedule  = flag.Bool("schedule", false, "print the initializer/finalizer schedule")
		showTime  = flag.Bool("time", false, "print the per-phase build-time breakdown")
		dumpFlat  = flag.Bool("dump-flat", false, "print the flattened merged source and exit")
		dumpAsm   = flag.Bool("dump-asm", false, "print the linked program as assembly and exit")
	)
	flag.Parse()
	if *assembleF || *goalF != "" {
		if *goalF == "" || (!*oskitRepo && flag.NArg() == 0) {
			fmt.Fprintln(os.Stderr, "usage: knit -assemble -goal file.goal [-enumerate K] [-emit-dir DIR] (-oskit | file.unit...)")
			os.Exit(2)
		}
		backend, err := machine.ParseBackend(*backendF)
		if err != nil {
			fail(err)
		}
		runAssemble(*goalF, *oskitRepo, *srcDir, *enumFlag, *emitDir, *run, *arg, backend)
		return
	}
	if *top == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: knit -top Unit [flags] file.unit...")
		flag.Usage()
		os.Exit(2)
	}

	backend, err := machine.ParseBackend(*backendF)
	if err != nil {
		fail(err)
	}

	unitFiles := map[string]string{}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		unitFiles[path] = string(data)
	}
	dir := *srcDir
	if dir == "" {
		dir = filepath.Dir(flag.Args()[0])
	}
	cache := build.NewCache()
	if *cacheDir != "" {
		cache, err = build.OpenCache(*cacheDir)
		if err != nil {
			fail(err)
		}
	}
	sources, err := loadSources(cache.FrontEnd(), unitFiles, dir)
	if err != nil {
		fail(err)
	}
	opts := build.Options{
		Top:         *top,
		UnitFiles:   unitFiles,
		Sources:     sources,
		Optimize:    *optimize,
		Flatten:     *flatten,
		Check:       *check,
		Cache:       cache,
		Parallelism: *jobs,
		Backend:     backend,
	}
	res, err := build.Build(opts)
	if err != nil {
		fail(err)
	}

	if *dumpFlat {
		src, err := build.SourceOf(res.Program, nil)
		if err != nil {
			fail(err)
		}
		fmt.Print(src)
		return
	}
	if *dumpAsm {
		fmt.Print(asm.Format(res.Object))
		return
	}
	fmt.Printf("knit: built %s: %d unit instances, %d initializers, text %d bytes\n",
		*top, len(res.Program.Instances), len(res.Schedule.Inits), res.Image.TextSize)
	if res.ConstraintReport != nil && res.ConstraintReport.Vars > 0 {
		fmt.Printf("knit: constraints OK (%d variables, %d relations)\n",
			res.ConstraintReport.Vars, res.ConstraintReport.Relations)
	}
	if *showTime {
		printTimings(os.Stdout, res.Timings)
	}
	if *schedule {
		fmt.Println("init order:")
		for i, name := range res.Schedule.Inits {
			fmt.Printf("  %2d. %s\n", i+1, name)
		}
		if len(res.Schedule.Fins) > 0 {
			fmt.Println("fini order:")
			for i, name := range res.Schedule.Fins {
				fmt.Printf("  %2d. %s\n", i+1, name)
			}
		}
	}
	if *run != "" {
		parts := strings.SplitN(*run, ".", 2)
		if len(parts) != 2 {
			fail(fmt.Errorf("-run wants bundle.symbol, got %q", *run))
		}
		m := res.NewMachine()
		m.Fuel = *fuel
		con := machine.InstallConsole(m)
		ser := machine.InstallSerial(m)
		machine.InstallStopWatch(m)
		var col *observe.Collector
		var tracer *observe.Tracer
		if *metrics || *traceOut != "" {
			col = observe.Attach(m)
			res.SetObserver(m, col)
			if *traceOut != "" {
				tracer = col.Trace(4096)
			}
		}
		if *supFlag {
			runSupervised(res, m, parts[0], parts[1], *arg, *policy, *fuel, *calls, col)
			printStreams(con, ser)
		} else {
			v, err := res.Run(m, parts[0], parts[1], *arg)
			if err != nil {
				fail(err)
			}
			printStreams(con, ser)
			fmt.Printf("%s(%d) = %d   [%d cycles, %d instructions]\n",
				*run, *arg, v, m.Cycles, m.Executed)
			if *upgradeF != "" {
				runUpgrade(res, m, *upgradeF, dir, parts[0], parts[1], *arg, opts)
			}
		}
		if *metrics {
			fmt.Println("knit: per-instance metrics:")
			col.Report().Format(os.Stdout)
		}
		if tracer != nil {
			if err := writeTrace(*traceOut, tracer); err != nil {
				fail(err)
			}
			fmt.Printf("knit: wrote %d trace spans (%d recorded) to %s\n",
				len(tracer.Spans()), tracer.Recorded(), *traceOut)
		}
	}
}

// runAssemble is the goal-directed assembly driver: it parses the goal
// spec, searches the repository (the built-in oskit kit or the unit
// files on the command line), and either runs the cheapest verified
// assembly or enumerates the top-K distinct ones for the harnesses. An
// unsatisfiable goal exits nonzero with the blocking constraint or
// export named. Costs are priced on the interpreter whatever the
// backend; the backend is the engine of -run.
func runAssemble(goalPath string, useOskit bool, srcDir string, k int,
	emitDir, runSpec string, arg int64, backend machine.Backend) {

	data, err := os.ReadFile(goalPath)
	if err != nil {
		fail(err)
	}
	goal, err := assemble.ParseGoal(goalPath, string(data))
	if err != nil {
		fail(err)
	}

	var repo assemble.Repo
	if useOskit {
		repo = oskit.Repository()
	} else {
		unitFiles := map[string]string{}
		for _, path := range flag.Args() {
			text, err := os.ReadFile(path)
			if err != nil {
				fail(err)
			}
			unitFiles[path] = string(text)
		}
		dir := srcDir
		if dir == "" {
			dir = filepath.Dir(flag.Args()[0])
		}
		sources, err := loadSources(new(link.FrontEnd), unitFiles, dir)
		if err != nil {
			fail(err)
		}
		repo = assemble.Repo{UnitFiles: unitFiles, Sources: sources}
	}

	start := time.Now()
	if k > 0 {
		asms, err := assemble.Enumerate(repo, goal, k, assemble.Options{})
		if err != nil {
			fail(err)
		}
		fmt.Printf("knit: %d satisfying assemblies (%d requested) in %v\n",
			len(asms), k, time.Since(start).Round(time.Millisecond))
		for i, a := range asms {
			fmt.Printf("  #%d %-16s %s\n     units: %s\n",
				i+1, a.Name, a.Cost, strings.Join(a.Units, ", "))
			emitAssembly(emitDir, fmt.Sprintf("%s_%02d.unit", a.Name, i+1), a.Text)
		}
		return
	}

	best, err := assemble.Assemble(repo, goal, assemble.Options{})
	if err != nil {
		fail(err)
	}
	fmt.Printf("knit: assembled %s in %v: %s\nknit: units: %s\n",
		best.Name, time.Since(start).Round(time.Millisecond),
		best.Cost, strings.Join(best.Units, ", "))
	fmt.Print(best.Text)
	emitAssembly(emitDir, best.Name+".unit", best.Text)
	if runSpec != "" {
		parts := strings.SplitN(runSpec, ".", 2)
		if len(parts) != 2 {
			fail(fmt.Errorf("-run wants bundle.symbol, got %q", runSpec))
		}
		best.Result.Backend = backend
		m := best.Result.NewMachine()
		con := machine.InstallConsole(m)
		ser := machine.InstallSerial(m)
		machine.InstallStopWatch(m)
		v, err := best.Result.Run(m, parts[0], parts[1], arg)
		if err != nil {
			fail(err)
		}
		printStreams(con, ser)
		fmt.Printf("%s(%d) = %d   [%d cycles, %d instructions]\n",
			runSpec, arg, v, m.Cycles, m.Executed)
	}
}

// emitAssembly writes one generated .unit file, creating dir on demand.
func emitAssembly(dir, name, text string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("knit: wrote %s\n", path)
}

// runUpgrade live-reconfigures the machine that just served the first
// call: the target unit file is parsed and linked, diffed against the
// running configuration, and the minimal rewire plan is applied
// transactionally — then the same export runs again on the same
// machine. As a certificate, a cold build of the target must agree with
// the upgraded live machine on the call's value.
func runUpgrade(res *build.Result, m *machine.M, targetPath, srcDir,
	bundle, sym string, arg int64, base build.Options) {

	data, err := os.ReadFile(targetPath)
	if err != nil {
		fail(err)
	}
	unitFiles := map[string]string{targetPath: string(data)}
	sources, err := loadSources(res.Cache().FrontEnd(), unitFiles, srcDir)
	if err != nil {
		fail(err)
	}
	for name, src := range base.Sources {
		if _, done := sources[name]; !done {
			sources[name] = src
		}
	}
	tgt := reconfigure.Target{
		Top:       base.Top,
		UnitFiles: unitFiles,
		Sources:   sources,
		Check:     base.Check,
	}
	plan, err := reconfigure.Diff(res, tgt)
	if err != nil {
		fail(fmt.Errorf("upgrade: %w", err))
	}
	fmt.Printf("knit: upgrade plan: %s\n", plan.Summary())
	for _, st := range plan.Steps() {
		fmt.Printf("  %-14s %-30s %s\n", st.Op, st.Slot, st.Detail)
	}
	if plan.NoOp() {
		fmt.Println("knit: target is the running configuration; nothing to do")
		return
	}
	if _, err := plan.Apply(m, nil); err != nil {
		fail(fmt.Errorf("upgrade: %w", err))
	}
	v, err := res.Run(m, bundle, sym, arg)
	if err != nil {
		fail(fmt.Errorf("upgrade: re-run: %w", err))
	}
	fmt.Printf("knit: upgraded live: %s.%s(%d) = %d\n", bundle, sym, arg, v)

	opts := base
	opts.UnitFiles = unitFiles
	opts.Sources = sources
	cold, err := build.Build(opts)
	if err != nil {
		fail(fmt.Errorf("upgrade: cold build of target: %w", err))
	}
	cv, err := cold.Run(cold.NewMachine(), bundle, sym, arg)
	if err != nil {
		fail(fmt.Errorf("upgrade: cold run of target: %w", err))
	}
	if cv != v {
		fail(fmt.Errorf("upgrade: live machine disagrees with cold build: %d vs %d", v, cv))
	}
	fmt.Printf("knit: upgrade verified against cold build (both return %d)\n", v)
}

// writeTrace dumps the tracer's retained spans as JSON lines.
func writeTrace(path string, tr *observe.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSupervised drives the requested export through the self-healing
// supervisor: initializers run transactionally, each call gets the
// watchdog fuel budget, and every fault is answered per policy —
// backoff-and-restart, fallback interposition, scope escalation. The
// final report enumerates each unit instance's supervision state.
func runSupervised(res *build.Result, m *machine.M, bundle, sym string,
	arg int64, policyPath string, fuel int64, calls int, col *observe.Collector) {
	pol := supervise.Default()
	if policyPath != "" {
		data, err := os.ReadFile(policyPath)
		if err != nil {
			fail(err)
		}
		pol, err = supervise.Parse(policyPath, string(data))
		if err != nil {
			fail(err)
		}
	}
	if pol.WatchdogFuel == 0 {
		pol.WatchdogFuel = fuel
	}
	if err := res.RunInit(m); err != nil {
		fail(err)
	}
	sup := supervise.New(res, m, pol, supervise.Wall())
	if col != nil {
		sup.Observe(col)
	}
	faults := 0
	var last int64
	for i := 0; i < calls; i++ {
		v, err := sup.Call(bundle, sym, arg)
		if err != nil {
			faults++
			fmt.Printf("knit: call %d faulted: %v\n", i+1, err)
			continue
		}
		last = v
	}
	fmt.Printf("knit: supervised %d calls of %s.%s, %d faulted; last value %d\n",
		calls, bundle, sym, faults, last)
	for _, ev := range sup.Events() {
		fmt.Printf("  event %-10s %-30s %s\n", ev.Action, ev.Instance, ev.Detail)
	}
	fmt.Println("knit: supervision report:")
	for _, st := range sup.Report() {
		line := fmt.Sprintf("  %-40s %-20s failures %d, restarts %d, swaps %d",
			st.Path, st.State, st.Failures, st.Restarts, st.Swaps)
		if st.ActiveModule != "" {
			line += ", serving via " + st.ActiveModule
		}
		fmt.Println(line)
	}
	if err := res.RunFini(m); err != nil {
		fmt.Printf("knit: finalization: %v\n", err)
	}
}

func printStreams(con, ser fmt.Stringer) {
	if out := con.String(); out != "" {
		fmt.Printf("console | %s\n", strings.ReplaceAll(out, "\n", "\nconsole | "))
	}
	if out := ser.String(); out != "" {
		fmt.Printf("serial  | %s\n", strings.ReplaceAll(out, "\n", "\nserial  | "))
	}
}

// printTimings renders the per-phase build-time breakdown (§6), one
// phase per line with its share of the total.
func printTimings(w io.Writer, t build.Timings) {
	total := t.Total()
	fmt.Fprintf(w, "build time %v (knit-proper %v, compiler+loader %v):\n",
		total.Round(time.Microsecond), t.KnitProper().Round(time.Microsecond),
		t.CompilerAndLoader().Round(time.Microsecond))
	for _, p := range t.Phases() {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(p.D) / float64(total)
		}
		fmt.Fprintf(w, "  %-9s %10v  %5.1f%%\n", p.Name, p.D.Round(time.Microsecond), pct)
	}
	if t.CompileJobs > 0 {
		fmt.Fprintf(w, "  compile cache: %d of %d translation units served from cache\n",
			t.CacheHits, t.CompileJobs)
	}
}

// loadSources reads every file named in any unit's files{} section
// that exists under dir; the builder reports precisely which file is
// missing if one is needed but absent. A unit file that does not parse
// fails here, at its position, before the build starts; the files are
// parsed through fe, so a build sharing it does not parse them again.
func loadSources(fe *link.FrontEnd, unitFiles map[string]string, dir string) (link.Sources, error) {
	files, err := fe.ParseUnitFiles(unitFiles)
	if err != nil {
		return nil, err
	}
	sources := link.Sources{}
	for _, f := range files {
		for _, u := range f.Units {
			for _, name := range u.Files {
				if _, done := sources[name]; done {
					continue
				}
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					continue // the builder errors if the unit actually needs it
				}
				sources[name] = string(data)
			}
		}
	}
	return sources, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "knit:", err)
	os.Exit(1)
}
