package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"knit/internal/clack"
	"knit/internal/knit/fleet"
	"knit/internal/machine"
)

// This file is the host side of the router: the generated traffic, a
// per-packet outcome oracle computed from the packet and the standard
// configuration's route table, and the simulated NICs that deliver
// packets to a machine and check every transmit and drop against the
// oracle and a fleet-global per-flow order ledger.

// item is one packet in flight: a reference into the trace plus the
// replay round and the timestamps latency is measured from.
type item struct {
	flow  uint64
	t0    int64 // ns since the pass began: submit time (closed loop) or due time (open loop)
	idx   int32 // index into the trace
	epoch int32 // replay round of the trace
	seq   int32 // position in the open loop's offered stream
	span  int32 // trace id of a sampled packet; 0 = not sampled
}

// expect is the oracle's verdict for one trace packet.
type expect struct {
	drop                          bool
	port                          int64 // transmit device
	kind, ttl, checksum, src, dst int64
}

// traffic is one seeded trace with its expected outcomes. A pass longer
// than the trace replays it round after round; round e shifts every
// packet's per-flow sequence number by e times the flow's packet count,
// so sequences keep rising across rounds, and subtracts the same amount
// from payload word 0, so the checksum — and thus every outcome — is
// unchanged.
type traffic struct {
	pkts    []clack.FlowPacket
	exp     []expect
	perFlow []int64
}

func newTraffic(spec clack.FlowSpec) *traffic {
	t := &traffic{pkts: spec.Generate(), perFlow: make([]int64, spec.Flows)}
	t.exp = make([]expect, len(t.pkts))
	for i, fp := range t.pkts {
		t.perFlow[fp.Flow]++
		t.exp[i] = expectOf(fp.Pkt, fleet.FlowLane(fp.Flow, 2))
	}
	return t
}

// fold is the router's 16-bit checksum fold.
func fold(sum int64) int64 { return (sum & 65535) + (sum >> 16) }

// expectOf predicts the standard router's handling of p arriving on
// device lane: classification by kind, header check (TTL and checksum),
// TTL decrement, route lookup (networks 10 and 30 to port 0, 20 and the
// default route to port 1), incremental checksum fix and source
// rewrite — or, for an ARP request, a reply back out of the ingress
// device.
func expectOf(p clack.Packet, lane int) expect {
	var sum int64
	for _, v := range p.Payload {
		sum += v
	}
	switch p.Kind {
	case clack.KindARP:
		return expect{port: int64(lane), kind: clack.KindARPReply, ttl: 64,
			checksum: fold(p.Src + sum), src: p.Dst, dst: p.Src}
	case clack.KindOther:
		return expect{drop: true}
	}
	if p.TTL <= 0 || fold(p.TTL+p.Dst+sum) != p.Checksum || p.TTL-1 <= 0 {
		return expect{drop: true}
	}
	port := int64(1)
	if net := p.Dst / 256; net == 10 || net == 30 {
		port = 0
	}
	c := p.Checksum - 1
	if c <= 0 {
		c += 65535
	}
	return expect{port: port, kind: clack.KindIP, ttl: p.TTL - 1, checksum: c,
		src: 1000 + port, dst: p.Dst}
}

// payload returns the payload words item it carries on the wire.
func (t *traffic) payload(it item) [8]int64 {
	p := t.pkts[it.idx].Pkt.Payload
	shift := int64(it.epoch) * t.perFlow[it.flow]
	p[0] -= shift
	p[7] += shift
	return p
}

// orderLedger is the fleet-global per-flow order check: the highest
// sequence number completed per flow, shared by every shard and machine
// generation, so it follows a flow across re-steers and respawns.
type orderLedger []atomic.Int64

// advance records seq for flow and reports whether it is in order.
func (o orderLedger) advance(flow uint64, seq int64) bool {
	for {
		last := o[flow].Load()
		if seq <= last {
			return false
		}
		if o[flow].CompareAndSwap(last, seq) {
			return true
		}
	}
}

// ledger is one shard's outcome record, accumulated over every machine
// generation the shard runs. Only the shard's goroutine writes it while
// the fleet runs.
type ledger struct {
	ok, wrong, inversions int
	lost                  int // delivered or queued packets with no outcome
	callErrs              int // supervised calls that returned an error
	served                int // packets the handler finished (and acked)
	firstWrong            string
	win                   []window
	callNs, batchNs       []int64
	respawnNs             []int64
	spans                 []span
}

// window is one measurement window's completions: a pass is cut into
// equal windows, and its figures are medians over them, so a stall of
// the host during one window moves them little.
type window struct {
	done         int     // packets completed correctly
	lat, latHigh []int64 // completion latency of one packet in latencyEvery, ns
}

// latencyEvery is the latency sampling stride: timing every packet
// would make memory grow with throughput.
const latencyEvery = 8

func newLedger(windows int) *ledger { return &ledger{win: make([]window, windows)} }

func (l *ledger) wrongf(format string, args ...any) {
	l.wrong++
	if l.firstWrong == "" {
		l.firstWrong = fmt.Sprintf(format, args...)
	}
}

// nic is one machine generation's pair of simulated devices.
type nic struct {
	tr    *traffic
	order orderLedger
	led   *ledger
	clock func() int64 // ns since the pass began; nil skips latency
	// winLen is the measurement window length in ns; completions past
	// the last window count but are not timed.
	winLen int64
	// high reports whether a flow's latency also counts as High class.
	high  func(flow uint64) bool
	lanes [2][]item
	head  [2]int
	cur   item
	busy  bool  // cur delivered, awaiting its transmit or drop
	rxAt  int64 // delivery time of a sampled cur
	words [clack.PktWords]int64
}

func (n *nic) push(it item) {
	lane := fleet.FlowLane(it.flow, 2)
	n.lanes[lane] = append(n.lanes[lane], it)
}

func (n *nic) remaining() int {
	return len(n.lanes[0]) - n.head[0] + len(n.lanes[1]) - n.head[1]
}

// settle accounts for anything the last run left undelivered or
// unfinished as lost, and empties the devices.
func (n *nic) settle() {
	n.led.lost += n.remaining()
	if n.busy {
		n.led.lost++
		n.busy = false
	}
	for i := range n.lanes {
		n.lanes[i] = n.lanes[i][:0]
		n.head[i] = 0
	}
}

func bufAddr(m *machine.M, dev int64) int64 {
	return int64(len(m.Mem)) - (dev+1)*clack.PktWords
}

// install registers the device builtins (and the router's stopwatch)
// on m and returns the stopwatch.
func (n *nic) install(m *machine.M) *machine.StopWatch {
	m.RegisterBuiltin("__rx_poll", func(mm *machine.M, args []int64) (int64, error) {
		dev := args[0]
		if dev < 0 || dev > 1 {
			return 0, fmt.Errorf("perfbench: rx on bad device %d", dev)
		}
		if n.head[dev] >= len(n.lanes[dev]) {
			return 0, nil
		}
		if n.busy {
			n.led.lost++ // the previous packet never left the graph
		}
		it := n.lanes[dev][n.head[dev]]
		if n.head[dev]++; n.head[dev] == len(n.lanes[dev]) {
			n.lanes[dev], n.head[dev] = n.lanes[dev][:0], 0
		}
		n.cur, n.busy = it, true
		if it.span != 0 && n.clock != nil {
			n.rxAt = n.clock()
		}
		p := n.tr.pkts[it.idx].Pkt
		w := n.words[:]
		w[0], w[1], w[2], w[3], w[4], w[5] = p.Kind, p.TTL, p.Checksum, p.Src, p.Dst, 0
		pay := n.tr.payload(it)
		copy(w[6:], pay[:])
		addr := bufAddr(mm, dev)
		return addr, mm.WriteWords(addr, w)
	})
	m.RegisterBuiltin("__tx", func(mm *machine.M, args []int64) (int64, error) {
		n.finish(mm, args[0], args[1])
		return 0, nil
	})
	m.RegisterBuiltin("__drop", func(mm *machine.M, args []int64) (int64, error) {
		n.finish(mm, -1, args[0])
		return 0, nil
	})
	return machine.InstallStopWatch(m)
}

// finish checks the in-flight packet's outcome — transmitted on dev, or
// dropped when dev is -1 — against the oracle and the order ledger.
func (n *nic) finish(mm *machine.M, dev, addr int64) {
	l := n.led
	if !n.busy {
		l.wrongf("outcome at device %d with no packet in flight", dev)
		return
	}
	n.busy = false
	it := n.cur
	if addr < 0 || addr+clack.PktWords > int64(len(mm.Mem)) {
		l.wrongf("outcome for packet %d at bad address %d", it.idx, addr)
		return
	}
	w := mm.Mem[addr : addr+clack.PktWords]
	e := &n.tr.exp[it.idx]
	pay := n.tr.payload(it)
	switch {
	case e.drop != (dev < 0):
		l.wrongf("packet %d (kind %d): dropped=%v, oracle says %v", it.idx, n.tr.pkts[it.idx].Pkt.Kind, dev < 0, e.drop)
		return
	case !e.drop && (dev != e.port || w[0] != e.kind || w[1] != e.ttl ||
		w[2] != e.checksum || w[3] != e.src || w[4] != e.dst):
		l.wrongf("packet %d: sent dev %d %v, oracle says dev %d %+v", it.idx, dev, w[:5], e.port, *e)
		return
	case [8]int64(w[6:]) != pay:
		l.wrongf("packet %d: payload %v, sent %v", it.idx, w[6:], pay)
		return
	}
	if !n.order.advance(it.flow, pay[7]) {
		l.inversions++
		return
	}
	l.ok++
	if n.clock == nil {
		return
	}
	now := n.clock()
	if w := now / n.winLen; w < int64(len(l.win)) {
		win := &l.win[w]
		if win.done++; win.done%latencyEvery == 0 {
			win.lat = append(win.lat, now-it.t0)
			if n.high != nil && n.high(it.flow) {
				win.latHigh = append(win.latHigh, now-it.t0)
			}
		}
	}
	if it.span != 0 {
		l.spans = append(l.spans, span{Trace: it.span, Name: "machine.packet", Start: n.rxAt, End: now})
	}
}

// since returns a clock reading ns elapsed from base.
func since(base time.Time) func() int64 {
	return func() int64 { return int64(time.Since(base)) }
}
