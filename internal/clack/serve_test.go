package clack

import (
	"errors"
	"reflect"
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/fleet"
	"knit/internal/knit/observe"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

// TestSupervisedRouterKeepsGoodput is the degraded-mode serving
// scenario on a one-shard fleet, on both engines: the Classifier is
// killed on every 50th call, and the supervised router must sustain
// ≥90% goodput, converging to a state where every instance is healthy
// or degraded-to-fallback — never dead.
func TestSupervisedRouterKeepsGoodput(t *testing.T) {
	for _, bk := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		t.Run(bk.String(), func(t *testing.T) {
			res, err := BuildRouter(Variant{})
			if err != nil {
				t.Fatalf("BuildRouter: %v", err)
			}
			res.Backend = bk
			rep, err := ServeFleet(res, DefaultFlowTraffic(2000), 1, supervise.Default(), fakeClocks, 50)
			if err != nil {
				t.Fatalf("ServeFleet: %v", err)
			}

			if rep.Goodput < 0.90 {
				t.Errorf("goodput = %.4f, want >= 0.90", rep.Goodput)
			}
			if !rep.Converged {
				t.Error("router did not converge to a fully serving state")
			}
			for _, st := range rep.Statuses[0] {
				if st.State != supervise.Healthy && st.State != supervise.Degraded {
					t.Errorf("%s ended %v, want healthy or degraded-to-fallback", st.Path, st.State)
				}
			}

			// Default policy: two restarts, then the fallback swap;
			// afterwards the injection no longer reaches the
			// (interposed-away) original.
			victim := FirstInstanceOf(res, "Classifier")
			var vst supervise.InstanceStatus
			for _, st := range rep.Statuses[0] {
				if st.Path == victim.Path {
					vst = st
				}
			}
			if vst.State != supervise.Degraded || vst.Restarts != 2 || vst.Swaps != 1 {
				t.Errorf("victim status = %+v, want degraded after 2 restarts and 1 swap", vst)
			}
			faults := rep.PerShard[0].Faults
			if faults != 3 {
				t.Errorf("faulted calls = %d, want 3", faults)
			}

			// Every received packet is accounted for except the ones in
			// flight when a fault struck.
			if lost := rep.Rx - rep.Tx - rep.Dropped; lost != faults {
				t.Errorf("lost %d packets with %d faults; every fault should cost exactly one",
					lost, faults)
			}
			if rep.TxBad != 0 {
				t.Errorf("%d malformed transmissions under supervision", rep.TxBad)
			}

			// The serve-time collector attributed the run: the report must
			// carry per-instance metrics, with the victim's restarts and
			// swap on the victim's ledger and the bulk of the calls
			// attributed somewhere.
			if rep.Metrics == nil || rep.Metrics.TotalCalls() == 0 {
				t.Fatal("serve report carries no observability metrics")
			}
			var vm *observe.InstanceMetrics
			for i := range rep.Metrics.Instances {
				if rep.Metrics.Instances[i].Path == victim.Path {
					vm = &rep.Metrics.Instances[i]
				}
			}
			if vm == nil {
				t.Fatalf("no metrics ledger for victim %s", victim.Path)
			}
			if vm.Restarts != 2 || vm.Swaps != 1 {
				t.Errorf("victim ledger restarts=%d swaps=%d, want 2 and 1", vm.Restarts, vm.Swaps)
			}
			if vm.TrapTotal() != 3 {
				t.Errorf("victim ledger traps = %d, want 3", vm.TrapTotal())
			}
		})
	}
}

// TestSupervisedRouterNoFaults: with no injection a one-shard fleet
// forwards and drops exactly what a bare kmain(N) run does over the same
// packets, each placed in the lane its flow hashes to, and records no
// recoveries.
func TestSupervisedRouterNoFaults(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	spec := DefaultFlowTraffic(400)
	rep, err := ServeFleet(res, spec, 1, nil, fakeClocks, 0)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	if rep.Goodput != 1.0 {
		t.Errorf("goodput = %.4f, want 1.0 with no faults", rep.Goodput)
	}
	if rep.PerShard[0].Faults != 0 || len(rep.Recoveries[0]) != 0 || rep.TxBad != 0 {
		t.Errorf("faults = %d, recoveries = %v, malformed = %d, want none",
			rep.PerShard[0].Faults, rep.Recoveries[0], rep.TxBad)
	}

	var lanes [2][]Packet
	for _, fp := range spec.Generate() {
		lane := fleet.FlowLane(fp.Flow, 2)
		lanes[lane] = append(lanes[lane], fp.Pkt)
	}
	m := res.NewMachine()
	stats := InstallDevices(m, lanes)
	installTicks(m)
	if _, err := res.Run(m, "main", "kmain", int64(spec.Packets+16)); err != nil {
		t.Fatalf("kmain: %v", err)
	}
	if tx := stats.Tx[0] + stats.Tx[1]; rep.Tx != tx || rep.Dropped != stats.Dropped {
		t.Errorf("one-shard fleet tx %d, dropped %d; bare kmain(N) tx %d, dropped %d",
			rep.Tx, rep.Dropped, tx, stats.Dropped)
	}
}

// TestSupervisedRouterOutlivesStepLimit: a long-lived serving machine
// whose Executed counter crosses the default StepLimit mid-traffic must
// keep serving every packet. The limit bounds each supervised call, not
// the machine's life; a lifetime cap would fault every call past it and
// leave the supervisor nothing to recover.
func TestSupervisedRouterOutlivesStepLimit(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	spec := DefaultTraffic(400)
	m := res.NewMachine()
	stats := InstallDevices(m, spec.Generate())
	machine.InstallStopWatch(m)
	if err := res.RunInit(m); err != nil {
		t.Fatalf("init: %v", err)
	}
	m.Executed = 1<<32 - 100000
	sup := supervise.New(res, m, supervise.Default(), supervise.NewFakeClock())
	for calls := 0; ; calls++ {
		if calls > 2*spec.Packets {
			t.Fatal("router made no progress")
		}
		got, err := sup.Call("main", "kmain", 1)
		if err != nil {
			t.Fatalf("call %d at Executed %d: %v", calls, m.Executed, err)
		}
		if got == 0 {
			break
		}
	}
	if m.Executed <= 1<<32 {
		t.Fatalf("Executed %d never crossed the default step limit", m.Executed)
	}
	rx := stats.Rx[0] + stats.Rx[1]
	if done := stats.Tx[0] + stats.Tx[1] + stats.Dropped; rx == 0 || done != rx {
		t.Errorf("received %d packets, accounted for %d", rx, done)
	}
	if !sup.Healthy() {
		t.Errorf("supervisor not healthy: %+v", sup.Report())
	}
}

// TestRouterFallbackSwapFaultLeavesZeroResidue: a fault during the
// fallback swap itself (ClassifierSafe's initializer dies) must roll
// back to the exact pre-swap machine — no module, no redirect, no data
// change — and a retry after the fault clears must succeed.
func TestRouterFallbackSwapFaultLeavesZeroResidue(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	m := res.NewMachine()
	InstallDevices(m, DefaultTraffic(16).Generate())
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	victim := FirstInstanceOf(res, "Classifier")
	before := m.Snapshot()

	in := faultinject.Attach(m)
	defer in.Detach()
	errBoom := errors.New("boom")
	in.FailEntryMatching("safe_init", errBoom)
	_, err = res.SwapFallback(m, victim)
	var lerr *build.LifecycleError
	if !errors.As(err, &lerr) || lerr.Op != "swap" || !lerr.RolledBack {
		t.Fatalf("err = %v, want rolled-back swap LifecycleError", err)
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("injected cause lost from %v", err)
	}
	if mods := m.DynModules(); len(mods) != 0 {
		t.Errorf("failed swap left modules: %v", mods)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Errorf("invariants after failed swap: %v", err)
	}
	if after := m.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Error("failed swap changed machine state")
	}

	in.Clear()
	lu, err := res.SwapFallback(m, victim)
	if err != nil {
		t.Fatalf("retry swap: %v", err)
	}
	if mods := m.DynModules(); len(mods) != 1 || mods[0] != lu.Name() {
		t.Errorf("modules after retry = %v, want only %s", mods, lu.Name())
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
}
