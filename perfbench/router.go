package main

import (
	"fmt"
	"runtime"
	"time"

	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/knit/observe"
	"knit/internal/machine"
)

// costPackets is how many trace packets every workload prices on the
// interpreter's cost model.
const costPackets = 4096

// buildRouter builds a router variant through the full checked pipeline.
func buildRouter(v clack.Variant, cache *build.Cache, be machine.Backend) (*build.Result, error) {
	res, err := clack.BuildRouterTuned(v, func(o *build.Options) {
		o.Cache = cache
		o.Check = true
		o.Backend = be
		o.Parallelism = 1
	})
	if err != nil {
		return nil, fmt.Errorf("build %s router: %w", v, err)
	}
	return res, nil
}

// timeConfig times the Click-language front end: parsing the standard
// configuration and compiling its graph to Knit units.
func timeConfig() (time.Duration, error) {
	start := time.Now()
	g, err := clack.ParseConfig(clack.StandardRouterConfig)
	if err != nil {
		return 0, err
	}
	if _, _, _, err := g.CompileToKnit("ClackRouter"); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// routers is one set-up's builds: the modular and flattened router on
// the interpreter for the cost model, and, for serving, the modular
// router on the compiled backend as a warm rebuild.
type routers struct {
	modular, flat, compiled *build.Result
	config                  time.Duration
}

func buildRouters(compiled bool) (*routers, error) {
	r := &routers{}
	var err error
	if r.config, err = timeConfig(); err != nil {
		return nil, err
	}
	cache := build.NewCache()
	if r.modular, err = buildRouter(clack.Variant{}, cache, machine.BackendInterp); err != nil {
		return nil, err
	}
	if r.flat, err = buildRouter(clack.Variant{Flattened: true}, build.NewCache(), machine.BackendInterp); err != nil {
		return nil, err
	}
	if compiled {
		if r.compiled, err = buildRouter(clack.Variant{}, cache, machine.BackendCompiled); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// buildPhases names the build layer's phases and reads each from Timings.
var buildPhases = []struct {
	name string
	of   func(build.Timings) time.Duration
}{
	{"parse", func(t build.Timings) time.Duration { return t.Parse }},
	{"elaborate", func(t build.Timings) time.Duration { return t.Elaborate }},
	{"check", func(t build.Timings) time.Duration { return t.Check }},
	{"schedule", func(t build.Timings) time.Duration { return t.Schedule }},
	{"flatten", func(t build.Timings) time.Duration { return t.Flatten }},
	{"compile", func(t build.Timings) time.Duration { return t.Compile }},
	{"link", func(t build.Timings) time.Duration { return t.Link }},
	{"load", func(t build.Timings) time.Duration { return t.Load }},
}

// reportBuild sets the build layer's per-phase medians over cold build
// pairs (each the sum of a modular and a flattened build's phase) and
// the front end's median time.
func reportBuild(out *outcome, pairs [][2]build.Timings, config []time.Duration) {
	for _, ph := range buildPhases {
		ds := make([]time.Duration, len(pairs))
		for i, p := range pairs {
			ds[i] = ph.of(p[0]) + ph.of(p[1])
		}
		out.set("build."+ph.name+"_ms", "ms", medianDur(ds, time.Millisecond))
	}
	out.set("clack.config_ms", "ms", medianDur(config, time.Millisecond))
}

// bareRun is one trace prefix run through a fresh machine in a single
// kmain call, outside any fleet or supervisor.
type bareRun struct {
	m      *machine.M
	watch  *machine.StopWatch
	wall   time.Duration
	allocs uint64
}

// runBare runs the first n trace packets through res and checks every
// outcome; observed attaches a metrics collector first.
func runBare(res *build.Result, tr *traffic, n int, observed bool) (*bareRun, error) {
	m := res.NewMachine()
	led := &ledger{}
	nc := &nic{tr: tr, order: make(orderLedger, len(tr.perFlow)), led: led}
	for i := 0; i < n; i++ {
		nc.push(item{flow: tr.pkts[i].Flow, idx: int32(i)})
	}
	watch := nc.install(m)
	if observed {
		res.SetObserver(m, observe.Attach(m))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := res.Run(m, "main", "kmain", int64(n+16))
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("bare run: %w", err)
	}
	nc.settle()
	if led.ok != n || watch.Windows != int64(n) {
		return nil, fmt.Errorf("bare run: %d of %d packets correct, %d windows (wrong %d, inversions %d, lost %d; %s)",
			led.ok, n, watch.Windows, led.wrong, led.inversions, led.lost, led.firstWrong)
	}
	return &bareRun{m: m, watch: watch, wall: wall, allocs: after.Mallocs - before.Mallocs}, nil
}

// costModel prices the trace prefix on the interpreter's cost model
// through the modular and the flattened image — Table 1's comparison —
// and reports the machine counters behind the two figures.
func costModel(r *routers, tr *traffic, out *outcome) error {
	n := min(costPackets, len(tr.pkts))
	mod, err := runBare(r.modular, tr, n, false)
	if err != nil {
		return fmt.Errorf("modular: %w", err)
	}
	flat, err := runBare(r.flat, tr, n, false)
	if err != nil {
		return fmt.Errorf("flattened: %w", err)
	}
	pk := float64(n)
	out.set("cycles_per_packet", "cycles", mod.watch.PerWindow())
	out.set("flat_cycles_per_packet", "cycles", flat.watch.PerWindow())
	if flat.watch.PerWindow() >= mod.watch.PerWindow() {
		out.problem("flattened router costs %.1f cycles/packet, not below modular %.1f",
			flat.watch.PerWindow(), mod.watch.PerWindow())
	}
	out.set("machine.stall_cycles_per_packet", "cycles", mod.watch.StallsPerWindow())
	out.set("machine.icache_miss_ratio", "frac", ratio(float64(mod.m.ICacheMiss), float64(mod.m.ICacheRefs)))
	out.set("machine.instr_per_packet", "count", float64(flat.m.Executed)/pk)
	out.set("machine.calls_per_packet", "count", float64(flat.m.Calls)/pk)
	out.set("machine.indirect_calls_per_packet", "count", float64(flat.m.IndCalls)/pk)
	out.set("build.text_bytes", "bytes", float64(r.modular.Image.TextSize))
	out.set("build.flat_text_bytes", "bytes", float64(r.flat.Image.TextSize))
	out.detail["cost_model_packets"] = n
	out.attempted += 2 * n
	return nil
}

// machineWall measures the engine's wall time per packet on res (the
// workload's serving backend) without any serving layer, and the
// metrics collector's added cost, from interleaved repetitions.
func machineWall(res *build.Result, tr *traffic, n, reps int, out *outcome) error {
	var bare, observed []time.Duration
	var allocs uint64
	for i := 0; i < reps; i++ {
		b, err := runBare(res, tr, n, false)
		if err != nil {
			return err
		}
		o, err := runBare(res, tr, n, true)
		if err != nil {
			return err
		}
		bare, observed = append(bare, b.wall), append(observed, o.wall)
		allocs += b.allocs
	}
	perPk := float64(n)
	out.set("machine.ns_per_packet", "ns", medianDur(bare, time.Nanosecond)/perPk)
	out.set("observe.ns_per_packet", "ns",
		(medianDur(observed, time.Nanosecond)-medianDur(bare, time.Nanosecond))/perPk)
	out.set("machine.allocs_per_packet", "count", float64(allocs)/float64(reps)/perPk)
	return nil
}
