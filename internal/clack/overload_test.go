package clack

import (
	"testing"

	"knit/internal/knit/build"
	"knit/internal/machine"
)

// TestServeOverloadSoak is the issue's acceptance scenario: open-loop
// traffic at 3x measured capacity, a shard killed every 50 processed
// packets, on both backends. Accepted goodput must stay >= 0.99, the
// fleet-global order oracle must see zero per-flow inversions
// (including across re-steers), conservation must balance exactly, and
// redelivery must recover every killed batch (0 drops).
func TestServeOverloadSoak(t *testing.T) {
	backends := []struct {
		name string
		b    machine.Backend
	}{
		{"interp", machine.BackendInterp},
		{"compiled", machine.BackendCompiled},
	}
	for _, bk := range backends {
		bk := bk
		t.Run(bk.name, func(t *testing.T) {
			res, err := BuildRouter(Variant{})
			if err != nil {
				t.Fatalf("BuildRouter: %v", err)
			}
			res.Backend = bk.b
			rep, err := ServeOverload(res, OverloadSpec{
				Packets:   1200,
				Flows:     64,
				Shards:    3,
				Multiple:  3,
				KillEvery: 50,
				Redeliver: 3,
				Seed:      1,
			})
			if err != nil {
				t.Fatalf("ServeOverload: %v", err)
			}
			t.Logf("%s: capacity=%.0fpps offered=%.0fpps submitted=%d admitted=%d served=%d shed=%v goodput=%.4f respawns=%d redelivered=%d trips=%d resteers=%d p99=%d cycles",
				bk.name, rep.CapacityPPS, rep.OfferedPPS, rep.Submitted, rep.Admitted,
				rep.Served, rep.Shed, rep.AcceptedGoodput, rep.Respawns, rep.Redelivered,
				rep.Stats.Trips, rep.Stats.Resteers, rep.P99Cycles)
			if rep.Submitted != 1200 {
				t.Fatalf("submitted = %d, want 1200", rep.Submitted)
			}
			if !rep.ConservationOK {
				t.Fatalf("conservation broken: submitted=%d admitted=%d served=%d dropped=%d shed=%d",
					rep.Submitted, rep.Admitted, rep.Served, rep.Dropped, rep.ShedTotal)
			}
			if rep.AcceptedGoodput < 0.99 {
				t.Fatalf("accepted goodput = %.4f, want >= 0.99", rep.AcceptedGoodput)
			}
			if rep.OrderViolations != 0 {
				t.Fatalf("order violations = %d, want 0", rep.OrderViolations)
			}
			if rep.TxBad != 0 {
				t.Fatalf("malformed transmissions = %d, want 0", rep.TxBad)
			}
			if rep.Dropped != 0 {
				t.Fatalf("dropped = %d, want 0 (kills are transient; redelivery must recover)", rep.Dropped)
			}
			if rep.Respawns == 0 || rep.Redelivered == 0 {
				t.Fatalf("soak too tame: respawns=%d redelivered=%d, want > 0", rep.Respawns, rep.Redelivered)
			}
		})
	}
}

// TestServeOverloadSoakKillBelowBatch kills each shard after every 40
// packets it serves, below the fleet's batch of 64, so one batch can be
// killed twice. Redelivery's three attempts must still recover every
// batch on both backends: the kill lever counts per shard, so a batch
// sees at most two kills however the shards interleave.
func TestServeOverloadSoakKillBelowBatch(t *testing.T) {
	for _, bk := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		res, err := BuildRouter(Variant{})
		if err != nil {
			t.Fatalf("BuildRouter: %v", err)
		}
		res.Backend = bk
		rep, err := ServeOverload(res, OverloadSpec{
			Packets:   1200,
			Flows:     64,
			Shards:    3,
			Multiple:  3,
			KillEvery: 40,
			Redeliver: 3,
			Seed:      1,
		})
		if err != nil {
			t.Fatalf("%s: ServeOverload: %v", bk, err)
		}
		if !rep.ConservationOK {
			t.Fatalf("%s: conservation broken: submitted=%d admitted=%d served=%d dropped=%d shed=%d",
				bk, rep.Submitted, rep.Admitted, rep.Served, rep.Dropped, rep.ShedTotal)
		}
		if rep.Dropped != 0 {
			t.Fatalf("%s: dropped = %d, want 0", bk, rep.Dropped)
		}
		if rep.OrderViolations != 0 {
			t.Fatalf("%s: order violations = %d, want 0", bk, rep.OrderViolations)
		}
		if rep.TxBad != 0 {
			t.Fatalf("%s: malformed transmissions = %d, want 0", bk, rep.TxBad)
		}
		if rep.Respawns == 0 || rep.Redelivered == 0 {
			t.Fatalf("%s: soak too tame: respawns=%d redelivered=%d", bk, rep.Respawns, rep.Redelivered)
		}
	}
}

// TestOverloadCapacityProbeDrivesPerPacket pins the capacity probe's
// drive: it redelivers like the soak, so it serves one packet per turn
// call — 2000 calls for its 2000 packets.
func TestOverloadCapacityProbeDrivesPerPacket(t *testing.T) {
	checkTurnOncePerPacket(t, servingMode{"capacity probe",
		func(res *build.Result) (*FleetReport, error) {
			pkts := (FlowSpec{Packets: 8000, Flows: 64, Skew: 1.05, Seed: 1}).Generate()
			_, rep, err := measureCapacity(res, OverloadSpec{Shards: 3, Redeliver: 3}, pkts)
			return rep, err
		}})
}
