// Command knitbench regenerates every table and figure of the paper's
// evaluation on the simulated machine, printing the paper's numbers next
// to the measured ones.
//
// Usage:
//
//	knitbench [-table1] [-table2] [-micro] [-census] [-buildtime] [-fig1c]
//	          [-ablations] [-recovery] [-packets N]
//
// With no selection flags, everything runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"knit/internal/clack"
	"knit/internal/click"
	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/knit/build"
	"knit/internal/knit/supervise"
	"knit/internal/ldlink"
	"knit/internal/oskit"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "Clack router variants (Table 1)")
		table2    = flag.Bool("table2", false, "Click router, unoptimized vs optimized (Table 2)")
		micro     = flag.Bool("micro", false, "Knit vs traditional build micro-benchmark (§6)")
		census    = flag.Bool("census", false, "constraint census on a 100-unit kernel (§5)")
		buildtime = flag.Bool("buildtime", false, "build-time breakdown (§6)")
		fig1c     = flag.Bool("fig1c", false, "interposition with ld vs Knit (Figure 1c)")
		ablations = flag.Bool("ablations", false, "mechanism ablations for the Table 1 result")
		recovery  = flag.Bool("recovery", false, "fault-to-restored-service latency, restart vs fallback swap")
		packets   = flag.Int("packets", 2000, "router workload size")
	)
	flag.Parse()

	all := !(*table1 || *table2 || *micro || *census || *buildtime || *fig1c || *ablations || *recovery)

	if all || *fig1c {
		runFig1c()
	}
	if all || *micro {
		runMicro()
	}
	if all || *census {
		runCensus()
	}
	if all || *buildtime {
		runBuildTime()
	}
	if all || *table1 {
		runTable1(*packets)
	}
	if all || *table2 {
		runTable2(*packets)
	}
	if all || *ablations {
		runAblations(*packets)
	}
	if all || *recovery {
		runRecovery()
	}
}

// runRecovery measures the supervision layer's fault-to-restored-service
// latency: the wall time from the moment the policy decides on a remedy
// to the moment the router serves again, for the two remedies — restart
// (reset the instance's data, re-run its initializers) and fallback swap
// (compile, dynamically load, and interpose the declared fallback unit).
// Backoff is zeroed so the numbers isolate mechanism cost from policy
// delay.
func runRecovery() {
	fmt.Println("== Recovery latency: restart vs fallback swap ==")
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	pol := supervise.Default()
	pol.BaseBackoff = 0
	byMode := map[string][]time.Duration{}
	const trials = 30
	for i := 0; i < trials; i++ {
		rep, err := clack.ServeSupervised(res, clack.DefaultTraffic(1000), pol,
			supervise.Wall(), 50)
		if err != nil {
			fail(err)
		}
		if rep.Goodput < 0.90 || !rep.Converged {
			fail(fmt.Errorf("trial %d: goodput %.4f converged=%v", i, rep.Goodput, rep.Converged))
		}
		for _, r := range rep.Recoveries {
			byMode[r.Mode] = append(byMode[r.Mode], r.Latency)
		}
	}
	for _, mode := range []string{"restart", "swap"} {
		lat := byMode[mode]
		if len(lat) == 0 {
			fail(fmt.Errorf("no %s recoveries measured", mode))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("   %-8s n=%3d  p50 %10v  p99 %10v\n", mode, len(lat),
			percentile(lat, 50), percentile(lat, 99))
	}
	fmt.Println()
}

// percentile returns the p-th percentile of sorted durations
// (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (p*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// runAblations quantifies each mechanism behind the Table 1 flattening
// result by disabling it in the flattened build.
func runAblations(packets int) {
	fmt.Println("== Ablations: what the flattening win is made of ==")
	spec := clack.DefaultTraffic(packets)
	measure := func(label string, v clack.Variant, tune func(*build.Options)) {
		res, err := clack.BuildRouterTuned(v, tune)
		if err != nil {
			fail(err)
		}
		meas, err := clack.RunRouter(res, spec)
		if err != nil {
			fail(err)
		}
		fmt.Printf("   %-28s %6.0f cycles/packet  %5.0f stalls\n",
			label, meas.CyclesPerPk, meas.StallsPerPk)
	}
	flat := clack.Variant{Flattened: true}
	measure("flattened (full)", flat, nil)
	measure("  - without inlining", flat, func(o *build.Options) { o.InlineLimit = -1 })
	measure("  - without CSE", flat, func(o *build.Options) { o.DisableCSE = true })
	measure("  - inline limit 64", flat, func(o *build.Options) { o.InlineLimit = 64 })
	measure("  - no sequential prefetch", flat, func(o *build.Options) {
		o.Costs.ICacheSeqMiss = o.Costs.ICacheMiss
	})
	measure("modular (reference)", clack.Variant{}, nil)
	measure("  - with 1 MB I-cache", clack.Variant{}, func(o *build.Options) {
		o.Costs.ICacheBytes = 1 << 20
	})
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "knitbench:", err)
	os.Exit(1)
}

// pctOf renders part as a percentage of whole, zero when whole is zero.
func pctOf(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func runTable1(packets int) {
	fmt.Println("== Table 1: Clack router performance (cycles per packet) ==")
	fmt.Println("   paper: modular 2411 | hand 1897 (-21%) | flattened 1574 (-35%) | both 1457 (-40%)")
	fmt.Println("   paper stalls: 781 | 637 | 455 | 361; text: 109464 | 108246 | 106065 | 106305")
	spec := clack.DefaultTraffic(packets)
	var base float64
	for _, v := range []clack.Variant{{}, {HandOptimized: true}, {Flattened: true},
		{HandOptimized: true, Flattened: true}} {
		m, err := clack.MeasureVariant(v, spec)
		if err != nil {
			fail(err)
		}
		if base == 0 {
			base = m.CyclesPerPk
		}
		fmt.Printf("   %-10s %7.0f cycles (%+5.1f%%)  %6.0f i-fetch stalls  %7d text bytes\n",
			m.Variant, m.CyclesPerPk, 100*(m.CyclesPerPk-base)/base,
			m.StallsPerPk, m.TextBytes)
	}
	fmt.Println()
}

func runTable2(packets int) {
	fmt.Println("== Table 2: Click router performance (cycles per packet) ==")
	fmt.Println("   paper: unoptimized 2486 | optimized 1146 (-54%)")
	spec := clack.DefaultTraffic(packets)
	base, err := click.Measure(click.Options{}, spec)
	if err != nil {
		fail(err)
	}
	optim, err := click.Measure(click.All(), spec)
	if err != nil {
		fail(err)
	}
	fmt.Printf("   unoptimized %7.0f cycles\n", base.CyclesPerPk)
	fmt.Printf("   optimized   %7.0f cycles (%.0f%% improvement)\n",
		optim.CyclesPerPk, 100*(1-optim.CyclesPerPk/base.CyclesPerPk))
	clackBase, err := clack.MeasureVariant(clack.Variant{}, spec)
	if err != nil {
		fail(err)
	}
	fmt.Printf("   (click base vs clack base: %+.1f%%; paper: +3%%)\n\n",
		100*(base.CyclesPerPk-clackBase.CyclesPerPk)/clackBase.CyclesPerPk)
}

func runMicro() {
	fmt.Println("== §6 micro-benchmark: Knit vs traditionally built (unit-boundary heavy) ==")
	fmt.Println("   paper: Knit from 2% slower to 3% faster, ±0.25%")
	for _, kernel := range []string{"FsKernel", "BigKernel"} {
		res, err := oskit.RunMicroKernel(kernel, 2000)
		if err != nil {
			fail(err)
		}
		fmt.Printf("   %-9s knit %.1f cycles/op, traditional %.1f cycles/op, delta %+.2f%% (%d units)\n",
			res.Kernel, res.KnitCycles, res.TradCycles, res.DeltaPct, res.UnitsTotal)
	}
	fmt.Println()
}

func runCensus() {
	fmt.Println("== §5 constraint census: ~100-unit kernel ==")
	fmt.Println("   paper: 100 units, 35 required constraints, 70% of those pure propagation")
	units, sources, top := oskit.CensusKernel(100, 35)
	res, err := build.Build(build.Options{
		Top:       top,
		UnitFiles: map[string]string{"census.unit": units},
		Sources:   sources,
		Check:     true,
	})
	if err != nil {
		fail(err)
	}
	annotated, propagating := 0, 0
	for _, inst := range res.Program.Instances {
		if len(inst.Unit.Constraints) == 0 {
			continue
		}
		annotated++
		for _, c := range inst.Unit.Constraints {
			if !c.RHS.IsValue() {
				propagating++
				break
			}
		}
	}
	fmt.Printf("   %d units, %d annotated, %d propagation-only; checker: %d vars, %d relations — PASS\n\n",
		len(res.Program.Instances), annotated, propagating,
		res.ConstraintReport.Vars, res.ConstraintReport.Relations)
}

func runBuildTime() {
	fmt.Println("== §6 build-time breakdown ==")
	fmt.Println("   paper: >95% of build time in the C compiler and linker;")
	fmt.Println("   constraint checking more than doubles Knit-proper time")
	const rounds = 10
	// Compiler/loader share, on a code-heavy build (the Clack router):
	// cold (empty content-hash cache) next to warm (every translation
	// unit cached by the immediately preceding build), plus a parallel
	// cold build to show the worker pool.
	var cold, warm, par build.Timings
	jobs := runtime.GOMAXPROCS(0)
	for i := 0; i < rounds; i++ {
		cache := build.NewCache()
		withCache := func(o *build.Options) { o.Cache = cache; o.Parallelism = 1 }
		resCold, err := clack.BuildRouterTuned(clack.Variant{}, withCache)
		if err != nil {
			fail(err)
		}
		cold.Add(resCold.Timings)
		resWarm, err := clack.BuildRouterTuned(clack.Variant{}, withCache)
		if err != nil {
			fail(err)
		}
		warm.Add(resWarm.Timings)
		resPar, err := clack.BuildRouterTuned(clack.Variant{},
			func(o *build.Options) { o.Parallelism = jobs })
		if err != nil {
			fail(err)
		}
		par.Add(resPar.Timings)
	}
	fmt.Println("   (clack router) per-phase, averaged over", rounds, "builds:")
	fmt.Printf("      %-9s %12s %7s  %12s %7s\n", "", "cold", "", "warm", "")
	warmPhases := warm.Phases()
	for i, p := range cold.Phases() {
		w := warmPhases[i]
		fmt.Printf("      %-9s %12v  %5.1f%%  %12v  %5.1f%%\n",
			p.Name, (p.D / rounds).Round(time.Microsecond), pctOf(p.D, cold.Total()),
			(w.D / rounds).Round(time.Microsecond), pctOf(w.D, warm.Total()))
	}
	// The warm build's target is deterministic: the cache serves every
	// compile job. Its time relative to the cold build is reported
	// without a target, since it moves with the compiler's cold speed.
	fmt.Printf("      cache: cold %d/%d hits, warm %d/%d hits (target: every warm job a hit)\n",
		cold.CacheHits/rounds, cold.CompileJobs/rounds,
		warm.CacheHits/rounds, warm.CompileJobs/rounds)
	fmt.Printf("   (clack router) compiler+loader: %.1f%% of cold build time\n",
		pctOf(cold.CompilerAndLoader(), cold.Total()))
	fmt.Printf("   (clack router) warm compiler+loader %v = %.1f%% of cold %v\n",
		(warm.CompilerAndLoader() / rounds).Round(time.Microsecond),
		pctOf(warm.CompilerAndLoader(), cold.CompilerAndLoader()),
		(cold.CompilerAndLoader() / rounds).Round(time.Microsecond))
	fmt.Printf("   (clack router) parallel compile (-j %d) %v vs serial %v (x%.1f)\n",
		jobs, (par.Compile / rounds).Round(time.Microsecond),
		(cold.Compile / rounds).Round(time.Microsecond),
		float64(cold.Compile)/float64(par.Compile))

	// Constraint-checking cost, on the constraint-heavy census kernel.
	var knit, knitChecked time.Duration
	units, sources, top := oskit.CensusKernel(100, 35)
	for i := 0; i < rounds; i++ {
		opts := build.Options{Top: top,
			UnitFiles: map[string]string{"census.unit": units},
			Sources:   sources, Optimize: true}
		res, err := build.Build(opts)
		if err != nil {
			fail(err)
		}
		knit += res.Timings.KnitProper()
		opts.Check = true
		res2, err := build.Build(opts)
		if err != nil {
			fail(err)
		}
		knitChecked += res2.Timings.KnitProper()
	}
	fmt.Printf("   (100-unit kernel) knit-proper %v -> %v with constraint checking (x%.2f)\n\n",
		knit/rounds, knitChecked/rounds, float64(knitChecked)/float64(knit))
}

func runFig1c() {
	fmt.Println("== Figure 1(c): interposing a logger between client and server ==")
	srcClient := `
extern int serve_web(int req);
int handle(int req) { return serve_web(req); }
`
	srcServer := `int serve_web(int req) { return req + 1000; }`
	srcLogger := `
int serve_unlogged(int req);
static int logged = 0;
int serve_logged(int req) { logged++; return serve_unlogged(req); }
`
	co := func(name, src string) *ldlink.Item {
		f, err := cmini.Parse(name, src)
		if err != nil {
			fail(err)
		}
		o, err := compile.Compile(f, compile.Options{})
		if err != nil {
			fail(err)
		}
		it := ldlink.Obj(o)
		return &it
	}
	// With ld, the logger must define serve_web to be seen by the client
	// while importing serve_web from the server: one name, two meanings.
	loggerForLd := `
extern int serve_web(int req);
static int logged = 0;
int serve_web(int req) { logged++; return serve_web(req); }
`
	_, err := ldlink.Link([]ldlink.Item{
		*co("client.c", srcClient), *co("logger.c", loggerForLd), *co("server.c", srcServer),
	}, ldlink.Options{})
	var md *ldlink.MultipleDefinitionError
	if errors.As(err, &md) {
		fmt.Printf("   ld:   %v\n", err)
	} else {
		fmt.Printf("   ld:   unexpectedly succeeded (%v)\n", err)
	}

	// With Knit, interposition is just wiring.
	units := `
bundletype Serve = { serve_web }
bundletype Main = { handle }
unit Server = { exports [ s : Serve ]; files { "server.c" }; }
unit Logger = {
  imports [ inner : Serve ];
  exports [ outer : Serve ];
  files { "logger.c" };
  rename { inner.serve_web to serve_unlogged; outer.serve_web to serve_logged; };
}
unit Client = { imports [ s : Serve ]; exports [ m : Main ]; files { "client.c" }; }
unit Wrapped = {
  exports [ m : Main ];
  link {
    [s] <- Server <- [];
    [w] <- Logger <- [s];
    [m] <- Client <- [w];
  };
}
`
	res, err := build.Build(build.Options{
		Top:       "Wrapped",
		UnitFiles: map[string]string{"fig1c.unit": units},
		Sources: map[string]string{
			"client.c": srcClient, "server.c": srcServer, "logger.c": srcLogger,
		},
	})
	if err != nil {
		fail(err)
	}
	m := res.NewMachine()
	v, err := res.Run(m, "m", "handle", 42)
	if err != nil {
		fail(err)
	}
	fmt.Printf("   knit: linked 3 units with the logger interposed; handle(42) = %d\n\n", v)
}
