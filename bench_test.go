// Package knit's root benchmark harness: one testing.B benchmark per
// table and figure in the paper's evaluation. Each benchmark reports the
// simulated metric the paper's table reports (cycles/packet, stall
// cycles, text bytes) via b.ReportMetric, alongside the usual wall-time
// measurement of the simulator itself.
//
// Run: go test -bench=. -benchmem
package knit

import (
	"sync"
	"testing"

	"knit/internal/clack"
	"knit/internal/click"
	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/knit/build"
	"knit/internal/knit/constraint"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/knit/supervise"
	"knit/internal/ldlink"
	"knit/internal/machine"
	"knit/internal/obj"
	"knit/internal/oskit"
)

// ---- Table 1: Clack router variants ----

var (
	routerOnce   sync.Once
	routerBuilds map[string]*build.Result
)

func routerBuild(b *testing.B, v clack.Variant) *build.Result {
	b.Helper()
	routerOnce.Do(func() {
		routerBuilds = map[string]*build.Result{}
		for _, vv := range []clack.Variant{{}, {HandOptimized: true},
			{Flattened: true}, {HandOptimized: true, Flattened: true}} {
			res, err := clack.BuildRouter(vv)
			if err != nil {
				panic(err)
			}
			routerBuilds[vv.String()] = res
		}
	})
	return routerBuilds[v.String()]
}

func benchRouter(b *testing.B, v clack.Variant) {
	res := routerBuild(b, v)
	packets := b.N
	if packets < 50 {
		packets = 50
	}
	meas, err := clack.RunRouter(res, clack.DefaultTraffic(packets))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(meas.CyclesPerPk, "cycles/packet")
	b.ReportMetric(meas.StallsPerPk, "stalls/packet")
	b.ReportMetric(float64(meas.TextBytes), "text-bytes")
}

func BenchmarkTable1Modular(b *testing.B)   { benchRouter(b, clack.Variant{}) }
func BenchmarkTable1Hand(b *testing.B)      { benchRouter(b, clack.Variant{HandOptimized: true}) }
func BenchmarkTable1Flattened(b *testing.B) { benchRouter(b, clack.Variant{Flattened: true}) }
func BenchmarkTable1Both(b *testing.B) {
	benchRouter(b, clack.Variant{HandOptimized: true, Flattened: true})
}

// ---- Table 2: Click router, unoptimized vs optimized ----

func benchClick(b *testing.B, opts click.Options) {
	packets := b.N
	if packets < 50 {
		packets = 50
	}
	meas, err := click.Measure(opts, clack.DefaultTraffic(packets))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(meas.CyclesPerPk, "cycles/packet")
	b.ReportMetric(meas.StallsPerPk, "stalls/packet")
}

func BenchmarkTable2ClickUnoptimized(b *testing.B) { benchClick(b, click.Options{}) }
func BenchmarkTable2ClickOptimized(b *testing.B)   { benchClick(b, click.All()) }

// ---- §6 micro-benchmark: Knit vs traditional build ----

func BenchmarkMicroKnitBuilt(b *testing.B) {
	res, err := oskit.BuildKernel("FsKernel", build.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := res.NewMachine()
	machine.InstallConsole(m)
	w := machine.InstallStopWatch(m)
	iters := int64(b.N)
	if iters < 10 {
		iters = 10
	}
	if _, err := res.Run(m, "main", "kmain", iters); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(w.Total)/float64(iters), "cycles/op")
}

func BenchmarkMicroTraditionallyBuilt(b *testing.B) {
	trad, err := oskit.TraditionalFsProgram(false)
	if err != nil {
		b.Fatal(err)
	}
	img, err := machine.Load(trad, machine.DefaultCosts())
	if err != nil {
		b.Fatal(err)
	}
	m := machine.New(img)
	machine.InstallConsole(m)
	w := machine.InstallStopWatch(m)
	if _, err := m.Run("canned_init"); err != nil {
		b.Fatal(err)
	}
	iters := int64(b.N)
	if iters < 10 {
		iters = 10
	}
	if _, err := m.Run("kmain", iters); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(w.Total)/float64(iters), "cycles/op")
}

// ---- §5/§6 build-time: Knit proper vs compiler, constraint checking ----

func BenchmarkBuildFsKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := oskit.BuildKernel("FsKernel", build.Options{Optimize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCensusElaborate(b *testing.B) {
	units, sources, top := oskit.CensusKernel(100, 35)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build.Build(build.Options{
			Top:       top,
			UnitFiles: map[string]string{"census.unit": units},
			Sources:   sources,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCensusConstraintCheck(b *testing.B) {
	units, sources, top := oskit.CensusKernel(100, 35)
	f, err := lang.Parse("census.unit", units)
	if err != nil {
		b.Fatal(err)
	}
	reg, err := link.NewRegistry(f)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := link.Elaborate(reg, top, sources)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := constraint.Check(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 1(c): linking baselines ----

func BenchmarkFig1cLdLink(b *testing.B) {
	client := mustCompile(b, "client.c", `
extern int serve(int x);
int main_(int x) { return serve(x); }
`)
	server := mustCompile(b, "server.c", `int serve(int x) { return x + 1; }`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldlink.Link([]ldlink.Item{ldlink.Obj(client), ldlink.Obj(server)},
			ldlink.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1cKnitInterposition(b *testing.B) {
	units := `
bundletype Serve = { serve }
bundletype Main = { m }
unit Server = { exports [ s : Serve ]; files { "server.c" }; }
unit Wrap = {
  imports [ inner : Serve ];
  exports [ outer : Serve ];
  files { "wrap.c" };
  rename { inner.serve to serve_inner; outer.serve to serve_outer; };
}
unit Client = { imports [ s : Serve ]; exports [ mm : Main ]; files { "client.c" }; }
unit Top = {
  exports [ mm : Main ];
  link {
    [s] <- Server <- [];
    [w] <- Wrap <- [s];
    [mm] <- Client <- [w];
  };
}
`
	sources := link.Sources{
		"server.c": `int serve(int x) { return x + 1; }`,
		"wrap.c":   `int serve_inner(int x); int serve_outer(int x) { return serve_inner(x) * 10; }`,
		"client.c": `int serve(int x); int m(int x) { return serve(x); }`,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build.Build(build.Options{
			Top:       "Top",
			UnitFiles: map[string]string{"t.unit": units},
			Sources:   sources,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations: the compiler passes flattening relies on ----

func BenchmarkCompileRouterElementsSeparate(b *testing.B) {
	srcs := clack.ElementSources()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, src := range srcs {
			mustCompile(b, name, src)
		}
	}
}

func mustCompile(b *testing.B, name, src string) *obj.File {
	b.Helper()
	f, err := cmini.Parse(name, src)
	if err != nil {
		b.Fatal(err)
	}
	o, err := compile.Compile(f, compile.Options{Opt: true})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// ---- the supervised serving path ----

// BenchmarkServeSupervised runs clack.ServeSupervised over b.N packets
// of DefaultTraffic on each engine and reports host ns/packet. Each
// packet is one supervised kmain(1) with a collector attached: a fleet
// shard's per-packet path, without perfbench's fleet. The timed region
// is all of ServeSupervised, so it also holds generating the traffic
// (every packet's payload), creating the machine, installing the
// devices and running the initializers — a few percent of the profile,
// nearly all of it generation (see EXPERIMENTS.md). Profile it with
// -cpuprofile to see where a served packet's time goes.
func BenchmarkServeSupervised(b *testing.B) {
	for _, backend := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		b.Run(backend.String(), func(b *testing.B) {
			res, err := clack.BuildRouterTuned(clack.Variant{}, func(o *build.Options) { o.Backend = backend })
			if err != nil {
				b.Fatal(err)
			}
			packets := max(b.N, 50)
			b.ResetTimer()
			rep, err := clack.ServeSupervised(res, clack.DefaultTraffic(packets), nil, supervise.NewFakeClock(), 0)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Goodput != 1 {
				b.Fatalf("goodput %.4f with no faults, want 1", rep.Goodput)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets), "ns/packet")
		})
	}
}

// ---- build-time: the cache and the parallel compile stage ----

// benchRouterBuild measures one full router build per iteration under
// the given tuning — the number the knitbench -buildtime table reports.
func benchRouterBuild(b *testing.B, tune func(*build.Options)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := clack.BuildRouterTuned(clack.Variant{}, tune); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildRouterCold(b *testing.B) {
	benchRouterBuild(b, nil)
}

// BenchmarkBuildRouterWarm builds once outside the timer to fill the
// cache, then measures fully warm builds.
func BenchmarkBuildRouterWarm(b *testing.B) {
	cache := build.NewCache()
	tune := func(o *build.Options) { o.Cache = cache }
	if _, err := clack.BuildRouterTuned(clack.Variant{}, tune); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchRouterBuild(b, tune)
}

func BenchmarkBuildRouterParallel(b *testing.B) {
	benchRouterBuild(b, func(o *build.Options) { o.Parallelism = 0 })
}
