package clack

import (
	"reflect"
	"testing"

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

// TestServeFleetBatchDriveCalls pins the batch drive: a fleet that does
// not redeliver feeds each batch into both lanes at once, so one kmain
// call serves up to two packets. Driving packet by packet instead would
// raise these totals to one call per packet on every backend.
func TestServeFleetBatchDriveCalls(t *testing.T) {
	want := map[int]int{1: 1182, 2: 1310, 4: 1502}
	for _, bk := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
		res, err := BuildRouter(Variant{})
		if err != nil {
			t.Fatalf("BuildRouter: %v", err)
		}
		res.Backend = bk
		for _, shards := range []int{1, 2, 4} {
			rep, err := ServeFleet(res, DefaultFlowTraffic(2000), shards, nil, fakeClocks, 0)
			if err != nil {
				t.Fatalf("%s, %d shards: ServeFleet: %v", bk, shards, err)
			}
			calls := 0
			for _, st := range rep.PerShard {
				calls += st.Calls
			}
			if calls != want[shards] {
				t.Errorf("%s, %d shards: %d kmain calls for 2000 packets, want %d",
					bk, shards, calls, want[shards])
			}
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
