// Command clack builds and runs the Clack modular router (the paper's
// §5.2 system). It accepts a Click-syntax configuration file — or uses
// the standard 24-component IP router — compiles it to Knit units, runs
// a synthetic packet stream through the simulated machine, and reports
// per-packet cycles and device statistics.
//
// Usage:
//
//	clack [-config file] [-variant modular|hand|flattened|both] [-packets N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/knit/link"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

func main() {
	var (
		configPath = flag.String("config", "", "Click-syntax configuration file (default: the standard IP router)")
		variant    = flag.String("variant", "modular", "modular | hand | flattened | both")
		packets    = flag.Int("packets", 1000, "number of packets to route")
		dumpUnits  = flag.Bool("dump-units", false, "print the generated Knit units and exit")
		supFlag    = flag.Bool("supervise", false, "serve the router under the self-healing supervisor")
		faultEvery = flag.Int("fault-every", 0, "with -supervise, kill a classifier element every N packets")
		soak       = flag.Duration("soak", 0, "with -supervise, repeat serving runs for this long and check for goroutine leaks")
		metrics    = flag.Bool("metrics", false, "with -supervise, print the per-instance observability report (each soak run dumps periodically)")
		shards     = flag.Int("shards", 0, "serve through a fleet of N shards behind the flow-hash balancer (0 = single machine)")
		upgrade    = flag.Bool("upgrade", false, "with -shards, live-upgrade the classifiers mid-stream via canary rollout")
		overloadF  = flag.Bool("overload", false, "with -shards, run the overload soak: open-loop traffic at -multiple x measured capacity with admission control, breakers, re-steering, and redelivery")
		multiple   = flag.Float64("multiple", 3, "with -overload, offered load as a multiple of measured capacity")
		killEvery  = flag.Int("kill-every", 50, "with -overload, kill each shard after every N packets it serves (0 = none)")
		canaryN    = flag.Int("canary", 1, "with -upgrade, number of canary shards")
		badCanary  = flag.Bool("bad-canary", false, "with -upgrade, trial the injected-regression classifier; the run must end in a verified rollback")
		backendF   = flag.String("backend", "", "execution backend: interp (reference, default) or compiled (closure-compiled; cycle columns exclude i-fetch stalls)")
	)
	flag.Parse()

	backend, err := machine.ParseBackend(*backendF)
	if err != nil {
		fail(err)
	}

	if *shards > 0 {
		if *upgrade {
			runFleetUpgrade(*shards, *packets, *canaryN, *badCanary, *metrics, backend)
			return
		}
		if *overloadF {
			runOverload(*shards, *packets, *multiple, *killEvery, backend)
			return
		}
		runFleet(*shards, *packets, *faultEvery, *metrics, backend)
		return
	}

	if *supFlag {
		runSupervised(*packets, *faultEvery, *soak, *metrics, backend)
		return
	}

	if *configPath != "" {
		runCustom(*configPath, *packets, *dumpUnits, backend)
		return
	}

	var v clack.Variant
	switch *variant {
	case "modular":
	case "hand":
		v = clack.Variant{HandOptimized: true}
	case "flattened":
		v = clack.Variant{Flattened: true}
	case "both":
		v = clack.Variant{HandOptimized: true, Flattened: true}
	default:
		fail(fmt.Errorf("unknown variant %q", *variant))
	}
	res, err := clack.BuildRouter(v)
	if err != nil {
		fail(err)
	}
	res.Backend = backend
	meas, err := clack.RunRouter(res, clack.DefaultTraffic(*packets))
	if err != nil {
		fail(err)
	}
	meas.Variant = v
	report(meas)
}

// runSupervised is the degraded-mode soak: the modular router serves
// synthetic traffic under the supervisor while fault injection kills a
// classifier element every N packets. Each serving run must sustain
// >= 90% goodput and converge (every instance healthy or
// degraded-to-fallback); a soak repeats runs for the given duration and
// additionally checks that supervision leaks no goroutines.
func runSupervised(packets, faultEvery int, soak time.Duration, metrics bool, backend machine.Backend) {
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	res.Backend = backend
	baseline := runtime.NumGoroutine()
	spec := clack.DefaultTraffic(packets)
	pol := supervise.Default()
	runs, totalFaults := 0, 0
	deadline := time.Now().Add(soak)
	var lastDump time.Time
	for {
		rep, err := clack.ServeSupervised(res, spec, pol, supervise.Wall(), faultEvery)
		if err != nil {
			fail(err)
		}
		runs++
		totalFaults += rep.Faults
		if rep.Goodput < 0.90 {
			fail(fmt.Errorf("run %d: goodput %.4f below 0.90", runs, rep.Goodput))
		}
		if !rep.Converged {
			fail(fmt.Errorf("run %d: router did not converge", runs))
		}
		for _, st := range rep.Statuses {
			if st.State != supervise.Healthy && st.State != supervise.Degraded {
				fail(fmt.Errorf("run %d: %s ended %s", runs, st.Path, st.State))
			}
		}
		if runs == 1 {
			fmt.Printf("clack supervised: %d packets, fault every %d, goodput %.4f, %d faults handled\n",
				rep.Stats.Rx[0]+rep.Stats.Rx[1], faultEvery, rep.Goodput, rep.Faults)
			for _, st := range rep.Statuses {
				if st.Failures > 0 {
					fmt.Printf("  %-40s %-20s restarts %d, swaps %d, via %s\n",
						st.Path, st.State, st.Restarts, st.Swaps, st.ActiveModule)
				}
			}
		}
		// With -metrics, dump the per-instance ledger after the first run
		// and then at most every 2s of a soak, so a long soak narrates its
		// component behavior without flooding the terminal.
		if metrics && rep.Metrics != nil && (runs == 1 || time.Since(lastDump) >= 2*time.Second) {
			lastDump = time.Now()
			fmt.Printf("clack metrics (run %d):\n", runs)
			rep.Metrics.Format(os.Stdout)
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	runtime.GC()
	if g := runtime.NumGoroutine(); g > baseline {
		fail(fmt.Errorf("goroutine leak: %d before soak, %d after %d runs", baseline, g, runs))
	}
	if soak > 0 {
		fmt.Printf("clack soak: %d runs in %v, %d faults handled, goroutines stable at %d\n",
			runs, soak, totalFaults, runtime.NumGoroutine())
	}
}

// runFleet serves the standard router through N shards sharing one
// image: flow-hashed placement, per-shard supervisors, merged metrics.
// With -fault-every, shard 0's classifier is killed every N packets and
// the report shows the blast radius staying inside that shard.
func runFleet(shards, packets, faultEvery int, metrics bool, backend machine.Backend) {
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	res.Backend = backend
	clk := func(int) supervise.Clock { return supervise.Wall() }
	rep, err := clack.ServeFleet(res, clack.DefaultFlowTraffic(packets), shards,
		supervise.Default(), clk, faultEvery)
	if err != nil {
		fail(err)
	}
	fmt.Printf("clack fleet: %d shards, %d packets, goodput %.4f, %d order violations\n",
		rep.Shards, rep.Rx, rep.Goodput, rep.OrderViolations)
	for id, st := range rep.PerShard {
		fmt.Printf("  shard %d: rx %d, tx %d, dropped %d, faults %d, restarts %d, swaps %d, respawns %d\n",
			id, st.Rx, st.Tx, st.Dropped, st.Faults, st.Restarts, st.Swaps, st.Respawns)
	}
	if !rep.Converged {
		fail(fmt.Errorf("fleet did not converge"))
	}
	if metrics && rep.Metrics != nil {
		fmt.Println("clack fleet metrics (all shards merged):")
		rep.Metrics.Format(os.Stdout)
	}
}

// runOverload is the overload-control drill: measure the fleet's
// closed-loop capacity, then offer a multiple of it open-loop while
// each shard is killed after every killEvery packets it serves. The overload layer must shed honestly
// (conservation balances exactly), finish everything it admitted
// (accepted goodput >= 0.99), recover every killed batch via
// redelivery (0 drops), and hold per-flow order through every re-steer
// (the fleet-global oracle sees 0 inversions). Each bound is the exit
// status for the CI soak leg; supervision must also leak no goroutines.
func runOverload(shards, packets int, multiple float64, killEvery int, backend machine.Backend) {
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	res.Backend = backend
	baseline := runtime.NumGoroutine()
	rep, err := clack.ServeOverload(res, clack.OverloadSpec{
		Packets:   packets,
		Flows:     64,
		Shards:    shards,
		Multiple:  multiple,
		KillEvery: killEvery,
		Redeliver: 3,
		Seed:      1,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("clack overload: %d shards, %d offered at %.1fx capacity (%.0f -> %.0f pps), kill every %d\n",
		rep.Shards, rep.Submitted, multiple, rep.CapacityPPS, rep.OfferedPPS, killEvery)
	fmt.Printf("  admitted %d, served %d, dropped %d, redelivered %d, shed [high %d, normal %d, low %d]\n",
		rep.Admitted, rep.Served, rep.Dropped, rep.Redelivered,
		rep.Shed[0], rep.Shed[1], rep.Shed[2])
	fmt.Printf("  accepted goodput %.4f, shed fraction %.4f, p99 %d cycles\n",
		rep.AcceptedGoodput, rep.ShedFraction, rep.P99Cycles)
	fmt.Printf("  respawns %d, trips %d, resteers %d, returns %d, order violations %d\n",
		rep.Respawns, rep.Stats.Trips, rep.Stats.Resteers, rep.Stats.Returns, rep.OrderViolations)
	if !rep.ConservationOK {
		fail(fmt.Errorf("conservation broken: submitted %d != served %d + dropped %d + shed %d",
			rep.Submitted, rep.Served, rep.Dropped, rep.ShedTotal))
	}
	if rep.AcceptedGoodput < 0.99 {
		fail(fmt.Errorf("accepted goodput %.4f, want >= 0.99", rep.AcceptedGoodput))
	}
	if rep.OrderViolations != 0 {
		fail(fmt.Errorf("%d per-flow order violations under overload", rep.OrderViolations))
	}
	if killEvery > 0 && rep.Dropped != 0 {
		fail(fmt.Errorf("%d batches dropped; transient kills with redelivery must recover all", rep.Dropped))
	}
	if killEvery > 0 && rep.Respawns == 0 {
		fail(fmt.Errorf("soak too tame: no respawns with kill-every %d", killEvery))
	}
	runtime.GC()
	if g := runtime.NumGoroutine(); g > baseline {
		fail(fmt.Errorf("goroutine leak: %d before overload run, %d after", baseline, g))
	}
}

// runFleetUpgrade is the live-reconfiguration demo: the fleet serves
// the standard router, then mid-stream the classifiers are upgraded via
// a canary rollout gated on the observe SLOs. A good upgrade must
// promote with zero goodput loss and zero order violations; a bad one
// (-bad-canary) must be caught by the SLO window and rolled back
// snapshot-identically — each outcome is the exit-status gate for its
// CI leg.
func runFleetUpgrade(shards, packets, canaries int, bad, metrics bool, backend machine.Backend) {
	if shards < 2 {
		fail(fmt.Errorf("-upgrade needs at least 2 shards (one canary, one stable), got %d", shards))
	}
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	res.Backend = backend
	clk := func(int) supervise.Clock { return supervise.Wall() }
	rep, err := clack.ServeFleetUpgrade(res, clack.DefaultFlowTraffic(packets), shards,
		canaries, bad, supervise.Default(), clk)
	if err != nil {
		fail(err)
	}
	outcome := "promoted"
	if rep.RolledBack {
		outcome = "rolled back"
		if rep.RollbackVerified {
			outcome += " (snapshot-verified)"
		}
	}
	fmt.Printf("clack upgrade: %d shards, canaries %v, plan [%s], %s after %d packets (%v, %d window ticks)\n",
		rep.Shards, rep.Canaries, rep.Plan, outcome, rep.DecisionAfter, rep.DecisionLatency.Round(time.Microsecond), rep.ObserveRounds)
	fmt.Printf("  goodput %.4f, %d order violations\n", rep.Goodput, rep.OrderViolations)
	for id, st := range rep.PerShard {
		fmt.Printf("  shard %d: rx %d, tx %d, dropped %d, faults %d, restarts %d, respawns %d\n",
			id, st.Rx, st.Tx, st.Dropped, st.Faults, st.Restarts, st.Respawns)
	}
	if metrics && rep.Metrics != nil {
		fmt.Println("clack upgrade metrics (all shards merged):")
		rep.Metrics.Format(os.Stdout)
	}
	if bad {
		if !rep.RolledBack {
			fail(fmt.Errorf("bad canary was not rolled back (promoted=%v)", rep.Promoted))
		}
		if !rep.RollbackVerified {
			fail(fmt.Errorf("rollback left residue on a canary shard"))
		}
		if rep.OrderViolations != 0 {
			fail(fmt.Errorf("%d order violations during bad-canary drill", rep.OrderViolations))
		}
		return
	}
	if !rep.Promoted {
		fail(fmt.Errorf("upgrade did not promote (rolled back=%v)", rep.RolledBack))
	}
	if rep.Goodput < 0.999 {
		fail(fmt.Errorf("goodput %.4f under upgrade, want >= 0.999", rep.Goodput))
	}
	if rep.OrderViolations != 0 {
		fail(fmt.Errorf("%d order violations under upgrade", rep.OrderViolations))
	}
	if !rep.Converged {
		fail(fmt.Errorf("fleet did not converge after promote"))
	}
}

func runCustom(path string, packets int, dumpUnits bool, backend machine.Backend) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	g, err := clack.ParseConfig(string(data))
	if err != nil {
		fail(err)
	}
	units, genSources, top, err := g.CompileToKnit("CustomRouter")
	if err != nil {
		fail(err)
	}
	full := clack.ElementUnits + units
	if dumpUnits {
		fmt.Print(units)
		return
	}
	sources := link.Sources{}
	for k, v := range clack.ElementSources() {
		sources[k] = v
	}
	for k, v := range genSources {
		sources[k] = v
	}
	res, err := build.Build(build.Options{
		Top:       top,
		UnitFiles: map[string]string{"custom.unit": full},
		Sources:   sources,
		Optimize:  true,
		Backend:   backend,
	})
	if err != nil {
		fail(err)
	}
	meas, err := clack.RunRouter(res, clack.DefaultTraffic(packets))
	if err != nil {
		fail(err)
	}
	report(meas)
}

func report(m *clack.Measurement) {
	fmt.Printf("clack %s: %d packets\n", m.Variant, m.Packets)
	fmt.Printf("  %.0f cycles/packet (%.0f i-fetch stall cycles), text %d bytes\n",
		m.CyclesPerPk, m.StallsPerPk, m.TextBytes)
	fmt.Printf("  forwarded %d (dev0 %d, dev1 %d), dropped %d\n",
		m.Forwarded, m.Stats.Tx[0], m.Stats.Tx[1], m.Dropped)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "clack:", err)
	os.Exit(1)
}
