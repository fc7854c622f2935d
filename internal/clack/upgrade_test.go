package clack

import (
	"strings"
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/reconfigure"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

// TestUpgradeTargetMinimalDiff pins the headline property of the
// upgrade path: swapping the classifier unit in the 24-component router
// configuration diffs to exactly the two classifier slots — every other
// slot (and the whole driver/OS scaffolding) is untouched.
func TestUpgradeTargetMinimalDiff(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := UpgradeTarget("ClassifierV2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := reconfigure.Diff(res, tgt)
	if err != nil {
		t.Fatal(err)
	}
	sum := plan.Summary()
	if !strings.Contains(sum, "2 replace, 0 add, 0 retire, 0 export rewires") {
		t.Fatalf("plan not minimal: %s", sum)
	}
	loads, interposes := 0, 0
	for _, st := range plan.Steps() {
		switch st.Op {
		case "load":
			loads++
			if !strings.Contains(st.Detail, "ClassifierV2") {
				t.Errorf("load step %+v does not target ClassifierV2", st)
			}
		case "interpose":
			interposes++
		default:
			t.Errorf("unexpected step %+v", st)
		}
	}
	if loads != 2 || interposes != 2 {
		t.Fatalf("got %d loads, %d interposes; want 2 and 2", loads, interposes)
	}
}

func TestUpgradeTargetUnknownUnit(t *testing.T) {
	if _, err := UpgradeTarget("NoSuchClassifier"); err != nil {
		t.Fatalf("target construction should not validate the unit yet: %v", err)
	}
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatal(err)
	}
	tgt, _ := UpgradeTarget("NoSuchClassifier")
	if _, err := reconfigure.Diff(res, tgt); err == nil {
		t.Fatal("Diff accepted a target with an undefined unit")
	}
}

func runUpgrade(t *testing.T, backend machine.Backend, bad bool) *UpgradeReport {
	t.Helper()
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatal(err)
	}
	res.Backend = backend
	clk := func(int) supervise.Clock { return supervise.Wall() }
	rep, err := ServeFleetUpgrade(res, DefaultFlowTraffic(3000), 4, 1, bad,
		supervise.Default(), clk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxBad != 0 {
		t.Errorf("%d malformed transmissions under upgrade, want 0", rep.TxBad)
	}
	return rep
}

// TestServeFleetUpgradePromote is the upgrade-under-load demo: the
// router keeps forwarding while the classifiers are replaced live, the
// canary holds the SLO, the plan promotes fleet-wide — with zero
// goodput loss and zero per-flow order violations, on both backends.
func TestServeFleetUpgradePromote(t *testing.T) {
	for _, backend := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		t.Run(backend.String(), func(t *testing.T) {
			rep := runUpgrade(t, backend, false)
			if !rep.Promoted || rep.RolledBack {
				t.Fatalf("promoted=%v rolledBack=%v (plan %s, %d observe rounds)",
					rep.Promoted, rep.RolledBack, rep.Plan, rep.ObserveRounds)
			}
			if rep.Goodput < 0.999 {
				t.Errorf("goodput %.4f under upgrade, want >= 0.999", rep.Goodput)
			}
			if rep.OrderViolations != 0 {
				t.Errorf("%d per-flow order violations under upgrade", rep.OrderViolations)
			}
			if !rep.Converged {
				t.Error("fleet did not converge")
			}
			if rep.DecisionAfter <= 0 {
				t.Errorf("DecisionAfter = %d, want > 0 (decision must land mid-stream)", rep.DecisionAfter)
			}
		})
	}
}

// TestServeFleetUpgradeBadRollsBack is the injected-regression drill:
// ClassifierBad passes every load-time check and regresses only under
// traffic; the canary SLO must catch it and the rollback must be
// snapshot-verified, while the stable shards never see the bad unit.
func TestServeFleetUpgradeBadRollsBack(t *testing.T) {
	for _, backend := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		t.Run(backend.String(), func(t *testing.T) {
			rep := runUpgrade(t, backend, true)
			if rep.Promoted || !rep.RolledBack {
				t.Fatalf("promoted=%v rolledBack=%v (plan %s, %d observe rounds)",
					rep.Promoted, rep.RolledBack, rep.Plan, rep.ObserveRounds)
			}
			if !rep.RollbackVerified {
				t.Error("rollback was not snapshot-identical")
			}
			// Only the canary shard may have lost packets; the stable
			// shards' goodput is untouched.
			for id, st := range rep.PerShard {
				if id == rep.Canaries[0] {
					continue
				}
				if st.Rx != st.Tx+st.Dropped {
					t.Errorf("stable shard %d lost packets: rx %d, tx %d, dropped %d",
						id, st.Rx, st.Tx, st.Dropped)
				}
			}
			if rep.OrderViolations != 0 {
				t.Errorf("%d per-flow order violations", rep.OrderViolations)
			}
		})
	}
}

// TestServeFleetUpgradeRollbackTurnsOncePerPacket: the bad canary faults
// on some of its turn calls, and each call still serves (or loses)
// exactly one packet.
func TestServeFleetUpgradeRollbackTurnsOncePerPacket(t *testing.T) {
	checkTurnOncePerPacket(t, servingMode{"upgrade rollback",
		func(res *build.Result) (*FleetReport, error) {
			rep, err := ServeFleetUpgrade(res, DefaultFlowTraffic(2000), 2, 1, true, nil, fakeClocks)
			if err != nil {
				return nil, err
			}
			return rep.FleetReport, nil
		}})
}

// TestDeviceBuffersSpareUpgradedModuleData: the rx buffers sit at the
// top of the stack region, below the dynamic region, so a received
// packet never overwrites a loaded module's data. After a live upgrade
// to ClassifierV2 its two ready flags are the dynamic region's first
// words; a buffer placed at the top of memory would hold them under
// payload words 6 and 7, and an IP packet with those words zero would
// clear lane 0's flag and be dropped. The base router forwards the same
// packet, and so must the upgraded one, on both engines.
func TestDeviceBuffersSpareUpgradedModuleData(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := UpgradeTarget("ClassifierV2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := reconfigure.Diff(res, tgt)
	if err != nil {
		t.Fatal(err)
	}
	turn, err := res.Export("main", "turn")
	if err != nil {
		t.Fatal(err)
	}
	p := Packet{Kind: KindIP, TTL: 9, Src: 7, Dst: 10*256 + 1}
	p.Payload = [8]int64{1, 2, 3, 4, 5, 6, 0, 0}
	p.Checksum = fold(p.TTL, p.Dst, p.Payload)
	for _, backend := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		for _, upgrade := range []bool{false, true} {
			m := res.NewMachine()
			m.SetBackend(backend)
			stats := InstallDevices(m, [2][]Packet{{p}, nil})
			installTicks(m)
			if err := res.RunInit(m); err != nil {
				t.Fatal(err)
			}
			if upgrade {
				if _, err := plan.Apply(m, nil); err != nil {
					t.Fatalf("%v: upgrade: %v", backend, err)
				}
			}
			if _, err := m.Run(turn, 0); err != nil {
				t.Fatalf("%v upgrade=%v: turn: %v", backend, upgrade, err)
			}
			if stats.Tx[0] != 1 || stats.Dropped != 0 || len(stats.TxBad) != 0 {
				t.Errorf("%v upgrade=%v: tx %v, dropped %d, malformed %v; want the packet forwarded on port 0",
					backend, upgrade, stats.Tx, stats.Dropped, stats.TxBad)
			}
			res.Forget(m)
		}
	}
}

// TestServeFleetUpgradeReusesBuildCache: a live upgrade parses and
// compiles through the router build's cache. The 4-shard upgrade after
// the build parses only what the target changed — its clack.unit and
// classifierv2.c — and compiles the two replaced Classifier slots once
// each, not once per slot per shard.
func TestServeFleetUpgradeReusesBuildCache(t *testing.T) {
	cache := build.NewCache()
	res, err := BuildRouterTuned(Variant{}, func(o *build.Options) { o.Cache = cache })
	if err != nil {
		t.Fatal(err)
	}
	parsed, misses := cache.FrontEnd().Len(), cache.Stats().Misses
	rep, err := ServeFleetUpgrade(res, DefaultFlowTraffic(2000), 4, 1, false, supervise.Default(), fakeClocks)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Promoted {
		t.Fatalf("upgrade did not promote (plan %s)", rep.Plan)
	}
	if got := cache.FrontEnd().Len() - parsed; got != 2 {
		t.Errorf("upgrade parsed %d new files, want 2 (clack.unit and classifierv2.c)", got)
	}
	if got := cache.Stats().Misses - misses; got != 2 {
		t.Errorf("upgrade compiled %d translation units, want 2 (one per replaced slot)", got)
	}
}
