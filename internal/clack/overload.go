package clack

import (
	"fmt"
	"time"

	"knit/internal/knit/build"
	"knit/internal/knit/fleet"
	"knit/internal/knit/observe"
	"knit/internal/knit/overload"
)

// This file is the overload soak: an open-loop generator offers the
// fleet a multiple of its measured capacity while each shard is killed
// after every KillEvery packets it serves, and the overload layer has
// to keep the accepted traffic flowing — admission control sheds by
// class, the killed shard's breaker trips and its flows re-steer,
// redelivery replays the in-flight batch on each respawn, and the
// rig's fleet-global order oracle proves per-flow order held through
// all of it.

// OverloadSpec shapes an overload soak.
type OverloadSpec struct {
	Packets   int     // offered packets in the open-loop phase
	Flows     int     // distinct flow keys
	Shards    int     // fleet width
	Multiple  float64 // offered load as a multiple of measured capacity (default 3)
	KillEvery int     // kill each shard after every N packets it serves (0 = none)
	Redeliver int     // fleet RedeliverAttempts (0 = at-most-once)
	Seed      int64
}

// OverloadReport is the soak's ledger. AcceptedGoodput is served over
// admitted — of the traffic the fleet accepted, how much it actually
// finished; shed traffic was refused honestly at the door and does not
// count against it.
type OverloadReport struct {
	Shards      int
	CapacityPPS float64 // measured closed-loop, packets/sec
	OfferedPPS  float64 // CapacityPPS * Multiple

	Submitted   uint64
	Admitted    uint64
	Served      uint64
	Dropped     uint64 // fleet-level batch losses (redelivery exhausted)
	Redelivered uint64
	Shed        [overload.NumClasses]uint64
	ShedTotal   uint64

	AcceptedGoodput float64 // Served / Admitted
	ShedFraction    float64 // ShedTotal / Submitted
	P99Cycles       int64   // per-call cycle p99 from the merged fleet report

	OrderViolations int // fleet-global per-flow sequence inversions
	Respawns        int
	Stats           overload.Stats

	// ConservationOK: submitted == served + dropped + shed exactly.
	ConservationOK bool

	// Device-level accounting: drops here are router policy, not
	// losses, and TxBad counts malformed transmissions.
	Rx, Tx, RouterDropped, TxBad int
}

// classOf assigns deterministic priority classes by flow key: 20% High,
// 60% Normal, 20% Low.
func classOf(flow uint64) overload.Class {
	switch flow % 10 {
	case 0, 1:
		return overload.High
	case 8, 9:
		return overload.Low
	default:
		return overload.Normal
	}
}

// measureCapacity runs a short closed-loop burst through a throwaway
// fleet of the same shape (no kills, no controller) and returns the
// sustained packets/sec — the capacity the open-loop phase multiplies —
// with the probe's serving report.
func measureCapacity(res *build.Result, spec OverloadSpec, pkts []FlowPacket) (float64, *FleetReport, error) {
	rg, err := newRig(res, fleet.Config{Shards: spec.Shards, RedeliverAttempts: spec.Redeliver}, 0, 0)
	if err != nil {
		return 0, nil, err
	}
	n := len(pkts) / 4
	if n < 256 {
		n = 256
	}
	if n > len(pkts) {
		n = len(pkts)
	}
	start := time.Now()
	for _, fp := range pkts[:n] {
		if err := rg.fl.Submit(fp.Flow, fp); err != nil {
			return 0, nil, err
		}
	}
	if err := rg.fl.Close(); err != nil {
		return 0, nil, fmt.Errorf("clack: capacity run: %w", err)
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	probe, err := rg.report(nil)
	if err != nil {
		return 0, nil, err
	}
	return float64(n) / elapsed.Seconds(), probe, nil
}

// ServeOverload runs the overload soak: measure capacity closed-loop,
// then offer Multiple times that rate open-loop through the overload
// controller while shards are killed on schedule.
func ServeOverload(res *build.Result, spec OverloadSpec) (*OverloadReport, error) {
	if spec.Shards < 2 {
		return nil, fmt.Errorf("clack: overload soak needs >= 2 shards (re-steering needs a sibling), got %d", spec.Shards)
	}
	if spec.Multiple <= 0 {
		spec.Multiple = 3
	}
	fspec := FlowSpec{Packets: spec.Packets, Flows: spec.Flows, Skew: 1.05, Seed: spec.Seed}
	if fspec.Flows < 1 {
		fspec.Flows = 64
	}
	pkts := fspec.Generate()

	capacity, _, err := measureCapacity(res, spec, pkts)
	if err != nil {
		return nil, err
	}
	offered := capacity * spec.Multiple

	rg, err := newRig(res, fleet.Config{Shards: spec.Shards, RedeliverAttempts: spec.Redeliver}, 0, spec.KillEvery)
	if err != nil {
		return nil, err
	}
	fl := rg.fl
	ctrl := overload.NewController(fl, overload.Config{
		SLO:       observe.SLO{MinCalls: 16, Windows: 4, PromoteAfter: 2},
		TripAfter: 2,
		CoolTicks: 4,
		MaxRemaps: 32,
		ParkCap:   256,
	})

	// Open loop: each packet has a wall-clock slot at the offered rate;
	// the generator never waits for the fleet, only for the clock. High
	// traffic gets a small deadline budget, everything else must fit or
	// shed.
	interval := time.Duration(float64(time.Second) / offered)
	tickEvery := len(pkts) / 64
	if tickEvery < 16 {
		tickEvery = 16
	}
	start := time.Now()
	for i, fp := range pkts {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		class := classOf(fp.Flow)
		if class == overload.High {
			ctrl.SubmitDeadline(fp.Flow, class, fp, time.Now().Add(2*time.Millisecond))
		} else {
			ctrl.TrySubmit(fp.Flow, class, fp)
		}
		if (i+1)%tickEvery == 0 {
			ctrl.Tick()
		}
	}
	// Settle: let barriers drain and breakers close, then stop.
	for i := 0; i < 8; i++ {
		ctrl.Tick()
		time.Sleep(time.Millisecond)
	}
	ctrl.Drain(time.Now().Add(10 * time.Second))
	closeErr := fl.Close()
	if closeErr != nil && spec.KillEvery == 0 {
		return nil, closeErr // with kills, shard errors are the point
	}

	fr, err := rg.report(closeErr)
	if err != nil {
		return nil, err
	}
	totals := fr.Metrics.Totals()
	st := ctrl.Stats()
	rep := &OverloadReport{
		Shards:          spec.Shards,
		CapacityPPS:     capacity,
		OfferedPPS:      offered,
		Submitted:       st.Submitted,
		Admitted:        st.Admitted,
		Shed:            st.Shed,
		ShedTotal:       st.ShedTotal,
		P99Cycles:       totals.P99(),
		OrderViolations: fr.OrderViolations,
		Stats:           st,
		Rx:              fr.Rx,
		Tx:              fr.Tx,
		RouterDropped:   fr.Dropped,
		TxBad:           fr.TxBad,
	}
	for _, sh := range fl.Shards() {
		rep.Served += sh.Served()
		rep.Dropped += sh.Dropped()
		rep.Redelivered += sh.Redelivered()
		rep.Respawns += sh.Respawns()
	}
	if rep.Admitted > 0 {
		rep.AcceptedGoodput = float64(rep.Served) / float64(rep.Admitted)
	}
	if rep.Submitted > 0 {
		rep.ShedFraction = float64(rep.ShedTotal) / float64(rep.Submitted)
	}
	rep.ConservationOK = rep.Submitted == rep.Served+rep.Dropped+rep.ShedTotal &&
		rep.Admitted == rep.Served+rep.Dropped
	return rep, nil
}
