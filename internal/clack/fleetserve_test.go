package clack

import (
	"fmt"
	"reflect"
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/fleet"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

func fakeClocks(int) supervise.Clock { return supervise.NewFakeClock() }

// TestServeFleetForwardsAndPreservesOrder is the clean-path fleet run:
// every ingested packet is accounted for (transmitted or deliberately
// dropped — nothing lost), no shard needs its supervisor, and per-flow
// transmit order matches arrival order on every shard.
func TestServeFleetForwardsAndPreservesOrder(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	rep, err := ServeFleet(res, DefaultFlowTraffic(2000), 4, nil, fakeClocks, 0)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	if rep.Rx != 2000 {
		t.Errorf("fleet ingested %d packets, want 2000", rep.Rx)
	}
	if rep.Tx+rep.Dropped != rep.Rx {
		t.Errorf("accounting: tx %d + dropped %d != rx %d", rep.Tx, rep.Dropped, rep.Rx)
	}
	if rep.Goodput != 1.0 {
		t.Errorf("goodput = %.4f, want 1.0 on a fault-free run", rep.Goodput)
	}
	if rep.OrderViolations != 0 {
		t.Errorf("%d per-flow order violations, want 0", rep.OrderViolations)
	}
	if rep.TxBad != 0 {
		t.Errorf("%d malformed transmissions, want 0", rep.TxBad)
	}
	if !rep.Converged {
		t.Error("fleet did not converge on a fault-free run")
	}
	for id, st := range rep.PerShard {
		if st.Restarts != 0 || st.Swaps != 0 || st.Respawns != 0 {
			t.Errorf("shard %d: restarts=%d swaps=%d respawns=%d on a fault-free run",
				id, st.Restarts, st.Swaps, st.Respawns)
		}
		if st.Rx == 0 {
			t.Errorf("shard %d ingested nothing; balancer starved it", id)
		}
	}
	// Every shard attributed work; the roll-up must show the classifier
	// serving on all of them (calls across shards merge by path).
	var clsCalls uint64
	for i := range rep.Metrics.Instances {
		if rep.Metrics.Instances[i].Path != "" {
			clsCalls += rep.Metrics.Instances[i].Calls
		}
	}
	if clsCalls == 0 {
		t.Error("merged metrics attribute no calls")
	}
}

// TestServeFleetSoakFaultIsolation is the satellite's soak scenario:
// shard 0's classifier is killed every 50 packets under a 4-shard load.
// The fleet must hold >= 99% goodput, keep per-flow order, and the
// blast radius must be exactly shard 0 — its supervisor restarts then
// swaps in ClassifierSafe while every sibling's counters stay zero.
func TestServeFleetSoakFaultIsolation(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	rep, err := ServeFleet(res, DefaultFlowTraffic(4000), 4, supervise.Default(), fakeClocks, 50)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	if rep.Goodput < 0.99 {
		t.Errorf("goodput = %.4f, want >= 0.99", rep.Goodput)
	}
	if rep.OrderViolations != 0 {
		t.Errorf("%d per-flow order violations under faults, want 0", rep.OrderViolations)
	}
	if rep.TxBad != 0 {
		t.Errorf("%d malformed transmissions under faults, want 0", rep.TxBad)
	}
	if !rep.Converged {
		t.Error("fleet did not converge (a shard ended dead or backing off)")
	}
	for id, st := range rep.PerShard {
		if id == 0 {
			if st.Restarts == 0 {
				t.Error("shard 0 saw no restarts; the injector never fired")
			}
			if st.Swaps == 0 {
				t.Error("shard 0 never swapped to ClassifierSafe")
			}
			if st.Faults == 0 {
				t.Error("shard 0 recorded no faulted kmain calls")
			}
			continue
		}
		if st.Restarts != 0 || st.Swaps != 0 || st.Faults != 0 || st.Respawns != 0 {
			t.Errorf("shard %d: restarts=%d swaps=%d faults=%d respawns=%d; fault bled outside shard 0",
				id, st.Restarts, st.Swaps, st.Faults, st.Respawns)
		}
	}
	// The roll-up must carry shard 0's recovery history: restart and
	// swap lifecycle events attributed to the Classifier instance.
	var restarts, swaps uint64
	for i := range rep.Metrics.Instances {
		restarts += rep.Metrics.Instances[i].Restarts
		swaps += rep.Metrics.Instances[i].Swaps
	}
	if restarts == 0 || swaps == 0 {
		t.Errorf("merged metrics: restarts=%d swaps=%d, want both > 0", restarts, swaps)
	}
}

// TestServeFleetDeterministic pins reproducibility: the same spec over
// the same shard count produces identical per-shard serving stats —
// flow placement, packet mix, and fault-free execution are all
// deterministic, so a fleet run is replayable.
func TestServeFleetDeterministic(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	a, err := ServeFleet(res, DefaultFlowTraffic(600), 2, nil, fakeClocks, 0)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	b, err := ServeFleet(res, DefaultFlowTraffic(600), 2, nil, fakeClocks, 0)
	if err != nil {
		t.Fatalf("ServeFleet: %v", err)
	}
	if !reflect.DeepEqual(a.PerShard, b.PerShard) {
		t.Errorf("two identical fleet runs diverged:\n%+v\n%+v", a.PerShard, b.PerShard)
	}
	if a.TxBad != 0 {
		t.Errorf("%d malformed transmissions, want 0", a.TxBad)
	}
}

// TestFlowTrafficGeneratorInvariants pins the generator properties the
// order check relies on: per-flow sequences are dense from 1, the flow
// tag survives in the payload, and a flow's (src, dst) — hence its
// route — never varies.
func TestFlowTrafficGeneratorInvariants(t *testing.T) {
	spec := DefaultFlowTraffic(3000)
	pkts := spec.Generate()
	if len(pkts) != 3000 {
		t.Fatalf("generated %d packets, want 3000", len(pkts))
	}
	nextSeq := map[uint64]int64{}
	dstOf := map[uint64]int64{}
	for i, fp := range pkts {
		if got := uint64(fp.Pkt.Payload[payloadFlowWord]); got != fp.Flow {
			t.Fatalf("packet %d: payload flow tag %d != flow %d", i, got, fp.Flow)
		}
		nextSeq[fp.Flow]++
		if fp.Pkt.Payload[payloadSeqWord] != nextSeq[fp.Flow] {
			t.Fatalf("packet %d: flow %d seq %d, want %d", i, fp.Flow,
				fp.Pkt.Payload[payloadSeqWord], nextSeq[fp.Flow])
		}
		if prev, ok := dstOf[fp.Flow]; ok && prev != fp.Pkt.Dst {
			t.Fatalf("flow %d changed dst %d -> %d; routes must be stable per flow",
				fp.Flow, prev, fp.Pkt.Dst)
		}
		dstOf[fp.Flow] = fp.Pkt.Dst
		if fp.Pkt.Src != 1+int64(fp.Flow) {
			t.Fatalf("flow %d has src %d, want %d", fp.Flow, fp.Pkt.Src, 1+int64(fp.Flow))
		}
	}
	// Determinism: a second generation is byte-identical.
	if !reflect.DeepEqual(pkts, spec.Generate()) {
		t.Error("generator is not deterministic for a fixed spec")
	}
}

// servingMode is one way the clack rig serves 2000 packets.
type servingMode struct {
	name  string
	serve func(*build.Result) (*FleetReport, error)
}

// checkTurnOncePerPacket is the one drive mode's call check: on both
// engines, each mode serves its 2000 packets in exactly 2000 supervised
// turn calls, with no malformed transmission.
func checkTurnOncePerPacket(t *testing.T, modes ...servingMode) {
	t.Helper()
	for _, bk := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		res, err := BuildRouter(Variant{})
		if err != nil {
			t.Fatalf("BuildRouter: %v", err)
		}
		res.Backend = bk
		for _, mode := range modes {
			rep, err := mode.serve(res)
			if err != nil {
				t.Fatalf("%s, %s: %v", bk, mode.name, err)
			}
			calls := 0
			for _, st := range rep.PerShard {
				calls += st.Calls
			}
			if rep.Rx != 2000 || calls != 2000 || rep.TxBad != 0 {
				t.Errorf("%s, %s: served %d packets in %d turn calls with %d malformed; want 2000 in 2000, none malformed",
					bk, mode.name, rep.Rx, calls, rep.TxBad)
			}
		}
	}
}

// TestServeFleetBatchDriveCalls pins the calls a fleet that does not
// redeliver makes to drive its batches: one turn call per packet at 1, 2
// and 4 shards. Feeding a whole batch into both lanes at once took
// 1182, 1310 and 1502 kmain calls for these 2000 packets, a count that
// grew with the shard count.
func TestServeFleetBatchDriveCalls(t *testing.T) {
	var modes []servingMode
	for _, shards := range []int{1, 2, 4} {
		modes = append(modes, servingMode{fmt.Sprintf("%d shards", shards),
			func(res *build.Result) (*FleetReport, error) {
				return ServeFleet(res, DefaultFlowTraffic(2000), shards, nil, fakeClocks, 0)
			}})
	}
	checkTurnOncePerPacket(t, modes...)
}

// TestTurnInstructionsPerPacket pins what one drive mode costs the
// machine, on both engines. Serving DefaultTraffic one turn per packet
// stays within 2% of bare kmain(N)'s instructions per packet (one
// kmain(1) per packet runs os_work twice, ×1.88), and the rig executes
// exactly the instructions of one turn per packet on flow traffic, at
// every fleet width, with and without redelivery.
func TestTurnInstructionsPerPacket(t *testing.T) {
	// turnEach serves pkts one turn each, packet i in lane laneOf(i), on
	// a fresh machine and returns the instructions it executed.
	turnEach := func(res *build.Result, pkts []Packet, laneOf func(int) int) (int64, *DeviceStats) {
		m := res.NewMachine()
		io := &shardIO{}
		installShardDevices(m, io)
		installTicks(m)
		if err := res.RunInit(m); err != nil {
			t.Fatal(err)
		}
		start := m.Executed
		for i, p := range pkts {
			lane := laneOf(i)
			io.rx[lane] = append(io.rx[lane], p)
			if _, err := res.Run(m, "main", "turn", int64(lane)); err != nil {
				t.Fatalf("turn(%d): %v", lane, err)
			}
		}
		return m.Executed - start, &io.stats
	}
	for _, bk := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		res, err := BuildRouter(Variant{})
		if err != nil {
			t.Fatalf("BuildRouter: %v", err)
		}
		res.Backend = bk

		spec := DefaultTraffic(20000)
		streams := spec.Generate()
		bare := res.NewMachine()
		stats := InstallDevices(bare, streams)
		installTicks(bare)
		if err := res.RunInit(bare); err != nil {
			t.Fatal(err)
		}
		start := bare.Executed
		if _, err := res.Run(bare, "main", "kmain", int64(spec.Packets+16)); err != nil {
			t.Fatalf("kmain: %v", err)
		}
		bareIPP := float64(bare.Executed-start) / float64(spec.Packets)
		// Generate deals the packets round-robin over the two lanes.
		var arrivals []Packet
		for i := 0; i < spec.Packets; i++ {
			arrivals = append(arrivals, streams[i%2][i/2])
		}
		executed, tstats := turnEach(res, arrivals, func(i int) int { return i % 2 })
		turnIPP := float64(executed) / float64(spec.Packets)
		if turnIPP > 1.02*bareIPP || tstats.Tx != stats.Tx || tstats.Dropped != stats.Dropped {
			t.Errorf("%s: turn per packet %.1f instructions/packet (tx %v, dropped %d); bare kmain(N) %.1f (tx %v, dropped %d); want within 2%% and the same traffic",
				bk, turnIPP, tstats.Tx, tstats.Dropped, bareIPP, stats.Tx, stats.Dropped)
		}

		flows := DefaultFlowTraffic(4000).Generate()
		pkts := make([]Packet, len(flows))
		for i, fp := range flows {
			pkts[i] = fp.Pkt
		}
		want, _ := turnEach(res, pkts, func(i int) int { return fleet.FlowLane(flows[i].Flow, 2) })
		t.Logf("%s: turn %.1f, bare kmain(N) %.1f instructions/packet on DefaultTraffic; %.1f on flow traffic",
			bk, turnIPP, bareIPP, float64(want)/float64(len(pkts)))
		for _, redeliver := range []int{0, 3} {
			for _, shards := range []int{1, 2, 4} {
				rg, err := newRig(res, fleet.Config{Shards: shards, RedeliverAttempts: redeliver}, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, fp := range flows {
					rg.fl.Submit(fp.Flow, fp)
				}
				if err := rg.fl.Close(); err != nil {
					t.Fatal(err)
				}
				var executed int64
				for _, sh := range rg.fl.Shards() {
					executed += sh.M.Executed
				}
				if executed != want {
					t.Errorf("%s, %d shards, redeliver %d: %d instructions for %d packets, want %d as one turn each",
						bk, shards, redeliver, executed, len(pkts), want)
				}
			}
		}
	}
}

// TestRigTrimsDrainedLanes: the rig resets a lane once turn has drained
// it, so a shard does not keep the packets it has served. Each lane's
// retained capacity after 8N packets is no more than after N.
func TestRigTrimsDrainedLanes(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	res.Backend = machine.BackendCompiled
	laneCaps := func(n int) [2]int {
		rg, err := newRig(res, fleet.Config{Shards: 1}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range DefaultFlowTraffic(n).Generate() {
			rg.fl.Submit(fp.Flow, fp)
		}
		if err := rg.fl.Close(); err != nil {
			t.Fatal(err)
		}
		io := rg.ios[0]
		return [2]int{cap(io.rx[0]), cap(io.rx[1])}
	}
	const n = 500
	small, large := laneCaps(n), laneCaps(8*n)
	for lane := range small {
		if large[lane] > small[lane] {
			t.Errorf("lane %d retains capacity %d after %d packets, %d after %d: want no growth",
				lane, large[lane], 8*n, small[lane], n)
		}
	}
}

// TestOrderOracleCountsInversions proves the order check can fire: one
// flow's packets run through the shard devices of a real router
// machine, and a duplicated or inverted sequence number is counted
// exactly once.
func TestOrderOracleCountsInversions(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatalf("BuildRouter: %v", err)
	}
	cases := []struct {
		name string
		seqs []int64
		want int
	}{
		{"in order", []int64{1, 2, 3, 4}, 0},
		{"duplicate", []int64{1, 2, 2, 3}, 1},
		{"inverted", []int64{1, 3, 2, 4}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := res.NewMachine()
			installTicks(m)
			io := &shardIO{oracle: &orderOracle{lastSeq: map[int64]int64{}}}
			installShardDevices(m, io)
			// One flow, plain IP only: every packet is forwarded, in lane
			// order, so transmit order is exactly the sequence list.
			for i, fp := range (FlowSpec{Packets: len(c.seqs), Flows: 1, Seed: 1}).Generate() {
				p := fp.Pkt
				p.Payload[payloadSeqWord] = c.seqs[i]
				p.Checksum = fold(p.TTL, p.Dst, p.Payload)
				io.rx[0] = append(io.rx[0], p)
			}
			if _, err := res.Run(m, "main", "kmain", 100); err != nil {
				t.Fatalf("kmain: %v", err)
			}
			if tx := io.stats.Tx[0] + io.stats.Tx[1]; tx != len(c.seqs) {
				t.Fatalf("transmitted %d of %d packets", tx, len(c.seqs))
			}
			if io.orderViolations != c.want {
				t.Fatalf("order violations = %d, want %d", io.orderViolations, c.want)
			}
		})
	}
}
