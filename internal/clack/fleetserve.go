package clack

import (
	"errors"
	"fmt"
	"math/rand"

	"knit/internal/knit/build"
	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/fleet"
	"knit/internal/knit/link"
	"knit/internal/knit/observe"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

// This file is the sharded serving mode: one built router image, N
// machine+supervisor+collector shards behind the fleet's flow-hash
// balancer. Each shard owns a private pair of simulated NICs; a flow is
// pinned to one shard (fleet.FlowShard) and to one ingress device
// within it (fleet.FlowLane), so a flow's packets traverse exactly one
// machine in arrival order. The router graph is all-push — a packet
// runs to completion before the next is polled — which makes per-flow
// transmit order equal per-flow arrival order; the __tx builtin checks
// that invariant on every transmitted packet via per-flow sequence
// numbers the generator stamps into the payload (payload words ride
// through every element untouched), against one fleet-global oracle.

// FlowSpec describes flow-structured traffic: spec.Flows distinct flow
// keys with Zipf(Skew) popularity, each flow owning a fixed
// (src, dst) pair — so its route is stable — and carrying per-flow
// sequence numbers. The slow-path mix mirrors TrafficSpec.
type FlowSpec struct {
	Packets     int
	Flows       int     // distinct flow keys (>= 1)
	Skew        float64 // Zipf s parameter (> 1); 0 means uniform flows
	ARPEvery    int     // every n-th packet is an ARP request (0 = none)
	OtherEvery  int     // every n-th packet is unclassifiable
	BadSumEvery int     // every n-th packet has a corrupt checksum
	LowTTLEvery int     // every n-th packet arrives with TTL 1
	Seed        int64
}

// DefaultFlowTraffic is DefaultTraffic's flow-structured sibling: the
// same slow-path mix over 256 flows with a mild Zipf skew.
func DefaultFlowTraffic(n int) FlowSpec {
	return FlowSpec{Packets: n, Flows: 256, Skew: 1.05, ARPEvery: 10,
		OtherEvery: 37, BadSumEvery: 41, LowTTLEvery: 43, Seed: 1}
}

// FlowPacket is one generated packet tagged with its flow key.
type FlowPacket struct {
	Flow uint64
	Pkt  Packet
}

// Payload word roles for flow traffic. The router never writes payload
// words, so both survive to the transmit ring on every path (the ARP
// responder swaps src/dst, which is why the flow identity rides in the
// payload instead).
const (
	payloadFlowWord = 6 // Payload[6]: flow key
	payloadSeqWord  = 7 // Payload[7]: per-flow sequence, from 1
)

// Generate builds the packet stream. Deterministic for a given spec:
// same flows, same sequence numbers, same mix.
func (spec FlowSpec) Generate() []FlowPacket {
	r := rand.New(rand.NewSource(spec.Seed))
	flows := spec.Flows
	if flows < 1 {
		flows = 1
	}
	var zipf *rand.Zipf
	if spec.Skew > 1 {
		zipf = rand.NewZipf(r, spec.Skew, 1, uint64(flows-1))
	}
	// Per-flow constants: src identifies the flow on the wire; dst picks
	// a stable route (networks 10/20/30/77 as in TrafficSpec.Generate).
	nets := []int64{10, 20, 30, 77}
	seq := make([]int64, flows)
	every := func(n, i int) bool { return n > 0 && i%n == n-1 }
	out := make([]FlowPacket, 0, spec.Packets)
	for i := 0; i < spec.Packets; i++ {
		var flow uint64
		if zipf != nil {
			flow = zipf.Uint64()
		} else {
			flow = uint64(r.Intn(flows))
		}
		seq[flow]++
		var p Packet
		p.TTL = int64(4 + r.Intn(60))
		p.Src = 1 + int64(flow)
		p.Dst = nets[flow%uint64(len(nets))]*256 + int64(flow%256)
		for j := range p.Payload {
			p.Payload[j] = int64(r.Intn(1 << 15))
		}
		p.Payload[payloadFlowWord] = int64(flow)
		p.Payload[payloadSeqWord] = seq[flow]
		p.Checksum = fold(p.TTL, p.Dst, p.Payload)
		switch {
		case every(spec.ARPEvery, i):
			p.Kind = KindARP
		case every(spec.OtherEvery, i):
			p.Kind = KindOther
		case every(spec.BadSumEvery, i):
			p.Kind = KindIP
			p.Checksum ^= 0x5a5a
		case every(spec.LowTTLEvery, i):
			p.Kind = KindIP
			p.TTL = 1
		default:
			p.Kind = KindIP
		}
		out = append(out, FlowPacket{Flow: flow, Pkt: p})
	}
	return out
}

// ShardServeStats is one shard's cumulative serving record, summed over
// every machine generation the shard went through.
type ShardServeStats struct {
	Rx, Tx, Dropped int
	TxBad           int // IP packets transmitted with TTL <= 0
	Faults          int // supervised turn calls that ended in a handled fault
	Calls           int // supervised turn calls driven
	OrderViolations int
	Restarts        int // supervisor restarts inside the shard
	Swaps           int // fallback swaps inside the shard
	Respawns        int // whole-machine respawns from the fleet snapshot
}

// FleetReport summarizes a sharded serving run.
type FleetReport struct {
	Shards   int
	Rx       int
	Tx       int
	Dropped  int
	TxBad    int     // malformed transmissions, fleet-wide; the router makes none
	Goodput  float64 // (Tx + Dropped) / Rx, fleet-wide
	PerShard []ShardServeStats
	// OrderViolations counts per-flow sequence inversions the
	// fleet-global order oracle observed at transmit. The flow-hash
	// design makes this 0.
	OrderViolations int
	// Converged reports every shard's supervisor ended with all
	// instances serving (healthy or degraded), and no shard died.
	Converged bool
	// Statuses and Recoveries are each live shard supervisor's instance
	// view and fault-to-restored-service measurements, indexed by shard.
	Statuses   [][]supervise.InstanceStatus
	Recoveries [][]supervise.RecoveryRecord
	// Metrics is the fleet-wide roll-up of every shard's collector,
	// retired generations included.
	Metrics *observe.Report
}

// FirstInstanceOf returns the first instance of the named unit in the
// program's instantiation order, or nil.
func FirstInstanceOf(res *build.Result, unitName string) *link.Instance {
	for _, inst := range res.Program.Instances {
		if inst.Unit.Name == unitName {
			return inst
		}
	}
	return nil
}

// rig is the host side of every clack serving mode — ServeFleet (whose
// one-shard fleet is the supervised router), ServeFleetUpgrade,
// ServeOverload and its capacity probe: per-shard NIC queues and
// generation totals, the fleet-global order oracle, the fault injector
// and the kill lever, the fleet's Setup and handler, and report
// assembly. A live upgrade or an overload soak therefore serves through
// exactly the machinery a plain run does.
type rig struct {
	fl *fleet.Fleet[FlowPacket]
	// ios holds each shard's current-generation IO; totals accumulate
	// retired generations at respawn time (Setup runs again on the same
	// ID).
	ios        []*shardIO
	totals     []ShardServeStats
	oracle     *orderOracle
	faultEvery int
	victimSym  string
	// killEvery > 0 kills a shard after every killEvery packets it has
	// served; sinceKill counts them, each entry on its shard's goroutine.
	killEvery int
	sinceKill []int
}

var errShardKilled = errors.New("clack: serving rig killed this shard")

// newRig builds a rig and the fleet it serves. faultEvery > 0 arms a
// fault injector on shard 0's Classifier: every faultEvery-th call into
// it traps. killEvery > 0 arms the kill lever. cfg.Setup is the rig's
// own.
func newRig(res *build.Result, cfg fleet.Config, faultEvery, killEvery int) (*rig, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("clack: fleet needs at least 1 shard, got %d", cfg.Shards)
	}
	rg := &rig{
		ios:        make([]*shardIO, cfg.Shards),
		totals:     make([]ShardServeStats, cfg.Shards),
		oracle:     &orderOracle{lastSeq: map[int64]int64{}},
		faultEvery: faultEvery,
		killEvery:  killEvery,
		sinceKill:  make([]int, cfg.Shards),
	}
	if faultEvery > 0 {
		victim := FirstInstanceOf(res, "Classifier")
		if victim == nil {
			return nil, fmt.Errorf("clack: no Classifier instance to inject faults into")
		}
		rg.victimSym = victim.ExportSyms["in"]["push"]
	}
	cfg.Setup = rg.setup
	fl, err := fleet.New[FlowPacket](res, cfg, rg.handle)
	if err != nil {
		return nil, err
	}
	rg.fl = fl
	return rg, nil
}

func (rg *rig) retire(id int) {
	io := rg.ios[id]
	if io == nil {
		return
	}
	rg.totals[id].Rx += io.stats.Rx[0] + io.stats.Rx[1]
	rg.totals[id].Tx += io.stats.Tx[0] + io.stats.Tx[1]
	rg.totals[id].Dropped += io.stats.Dropped
	rg.totals[id].TxBad += len(io.stats.TxBad)
	rg.totals[id].Faults += io.faults
	rg.totals[id].Calls += io.calls
	rg.totals[id].OrderViolations += io.orderViolations
}

func (rg *rig) setup(id int, m *machine.M) error {
	machine.InstallStopWatch(m)
	if id == fleet.Prototype {
		// The prototype only runs the init schedule; give it inert
		// devices in case an initializer touches them.
		installShardDevices(m, &shardIO{})
		return nil
	}
	rg.retire(id)
	rg.ios[id] = &shardIO{oracle: rg.oracle}
	installShardDevices(m, rg.ios[id])
	if rg.faultEvery > 0 && id == 0 {
		faultinject.Attach(m).TrapCallEvery(rg.victimSym, rg.faultEvery)
	}
	return nil
}

// handle serves the batch packet by packet: the packet goes into its
// flow's lane, supervised turn calls on that lane serve it, and an Ack
// marks it done, so a kill lands between packets and a replay resumes
// at the exact packet.
func (rg *rig) handle(sh *fleet.Shard[FlowPacket], batch []FlowPacket) error {
	io := rg.ios[sh.ID]
	for i, fp := range batch {
		if rg.killEvery > 0 && rg.sinceKill[sh.ID] >= rg.killEvery {
			rg.sinceKill[sh.ID] = 0
			return errShardKilled
		}
		lane := fleet.FlowLane(fp.Flow, 2)
		io.rx[lane] = append(io.rx[lane], fp.Pkt)
		// One call serves the packet, or loses it to a handled fault. Only
		// a machine the supervisor has given up on (dead instance, every
		// call failing) can leave it in the lane for 68 calls, and that is
		// exactly the respawn case.
		for calls := 0; io.head[lane] < len(io.rx[lane]); calls++ {
			if calls == 68 {
				return fmt.Errorf("no progress after %d turn calls on lane %d", calls, lane)
			}
			io.calls++
			if _, err := sh.Sup.Call("main", "turn", int64(lane)); err != nil {
				io.faults++
			}
		}
		io.rx[lane], io.head[lane] = io.rx[lane][:0], 0 // drained: reuse the lane
		rg.sinceKill[sh.ID]++
		sh.Ack(i + 1)
	}
	return nil
}

// report retires every shard's live generation and rolls the totals up
// into the fleet's serving report. Call it after the fleet closed, with
// Close's error. It fails if a live shard's dynamic module tables break
// their invariants.
func (rg *rig) report(closeErr error) (*FleetReport, error) {
	fl := rg.fl
	rep := &FleetReport{Shards: len(rg.totals), Converged: closeErr == nil}
	rep.Statuses = fl.Statuses()
	rep.Metrics = fl.Report()
	for id, sh := range fl.Shards() {
		if err := sh.M.CheckDynInvariants(); err != nil {
			return nil, fmt.Errorf("clack: shard %d after serving: %w", id, err)
		}
		rep.Recoveries = append(rep.Recoveries, sh.Sup.Recoveries())
		rg.retire(id)
		rg.ios[id] = nil
		st := rg.totals[id]
		st.Respawns = sh.Respawns()
		for _, is := range rep.Statuses[id] {
			st.Restarts += is.Restarts
			st.Swaps += is.Swaps
			if is.State != supervise.Healthy && is.State != supervise.Degraded {
				rep.Converged = false
			}
		}
		rep.PerShard = append(rep.PerShard, st)
		rep.Rx += st.Rx
		rep.Tx += st.Tx
		rep.Dropped += st.Dropped
		rep.TxBad += st.TxBad
		rep.OrderViolations += st.OrderViolations
	}
	if rep.Rx > 0 {
		rep.Goodput = float64(rep.Tx+rep.Dropped) / float64(rep.Rx)
	}
	return rep, nil
}

// ServeFleet serves flow-structured traffic over a sharded router
// fleet. Every shard runs the same built image; faultEvery > 0 arms a
// fault injector on shard 0's Classifier only. Its supervisor restarts
// the Classifier per policy, then swaps in ClassifierSafe, and the
// router keeps forwarding throughout — a one-shard fleet is the
// degraded-mode serving scenario, a wider one the blast-radius scenario,
// where the siblings' counters stay untouched.
func ServeFleet(res *build.Result, spec FlowSpec, shards int, pol *supervise.Policy,
	clk func(int) supervise.Clock, faultEvery int) (*FleetReport, error) {

	rg, err := newRig(res, fleet.Config{Shards: shards, Policy: pol, Clock: clk}, faultEvery, 0)
	if err != nil {
		return nil, err
	}
	for _, fp := range spec.Generate() {
		rg.fl.Submit(fp.Flow, fp)
	}
	return rg.report(rg.fl.Close())
}
