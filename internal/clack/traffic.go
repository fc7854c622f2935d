package clack

import (
	"fmt"
	"math/rand"
	"sync"

	"knit/internal/machine"
)

// Packet kinds.
const (
	KindIP       = 0
	KindARP      = 2
	KindOther    = 3
	KindARPReply = 4
)

// Packet is a host-side packet description.
type Packet struct {
	Kind     int64
	TTL      int64
	Checksum int64
	Src      int64
	Dst      int64
	Payload  [8]int64
}

func (p *Packet) words() []int64 {
	w := make([]int64, PktWords)
	w[0] = p.Kind
	w[1] = p.TTL
	w[2] = p.Checksum
	w[3] = p.Src
	w[4] = p.Dst
	// w[5] = paint, written by the router.
	copy(w[6:], p.Payload[:])
	return w
}

// fold computes the router's 16-bit-folded checksum over ttl + dst +
// payload (the checksum covers the TTL, as IP's does).
func fold(ttl, dst int64, payload [8]int64) int64 {
	sum := ttl + dst
	for _, v := range payload {
		sum += v
	}
	return (sum & 65535) + (sum >> 16)
}

// TrafficSpec configures the synthetic packet mix. The paper's testbed
// streamed packets through the "machine in the middle"; this generator
// exercises the same code paths: valid IP (both routes), ARP requests,
// unclassifiable packets, bad checksums, and expiring TTLs.
type TrafficSpec struct {
	Packets     int
	ARPEvery    int // every n-th packet is an ARP request (0 = none)
	OtherEvery  int // every n-th packet is unclassifiable
	BadSumEvery int // every n-th packet has a corrupt checksum
	LowTTLEvery int // every n-th packet arrives with TTL 1
	Seed        int64
}

// DefaultTraffic is the Table 1 / Table 2 workload: dominated by the IP
// fast path with a sprinkling of the slow paths.
func DefaultTraffic(n int) TrafficSpec {
	return TrafficSpec{Packets: n, ARPEvery: 10, OtherEvery: 37,
		BadSumEvery: 41, LowTTLEvery: 43, Seed: 1}
}

// Generate builds the per-device packet streams (round-robin over the
// two devices).
func (spec TrafficSpec) Generate() [2][]Packet {
	r := rand.New(rand.NewSource(spec.Seed))
	var out [2][]Packet
	// Packets are large values; preallocate so appending never reallocates
	// (the copies used to dominate generation time for big specs).
	out[0] = make([]Packet, 0, spec.Packets/2+1)
	out[1] = make([]Packet, 0, spec.Packets/2+1)
	every := func(n, i int) bool { return n > 0 && i%n == n-1 }
	// Destination network 10 routes to port 0, 20 to port 1, 30 to
	// port 0; anything else takes the default route (port 1).
	nets := [...]int64{10, 20, 30, 77}
	for i := 0; i < spec.Packets; i++ {
		var p Packet
		p.TTL = int64(4 + r.Intn(60))
		p.Src = int64(r.Intn(1 << 16))
		p.Dst = nets[r.Intn(len(nets))]*256 + int64(r.Intn(256))
		for j := range p.Payload {
			p.Payload[j] = int64(r.Intn(1 << 15))
		}
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
		out[i%2] = append(out[i%2], p)
	}
	return out
}

// DeviceStats records what the simulated NIC observed.
type DeviceStats struct {
	Rx      [2]int
	Tx      [2]int
	Dropped int
	// TxTTLOK counts transmitted IP packets whose TTL was decremented.
	TxTTLOK int
	TxBad   []string // descriptions of malformed transmissions
}

// Forwardable returns the total transmitted packet count.
func (s *DeviceStats) Forwardable() int { return s.Tx[0] + s.Tx[1] }

// InstallDevices registers the NIC builtins (__rx_poll, __tx, __drop) on
// m, feeding the given streams. Packets are delivered through two
// per-device buffers placed at the top of simulated memory, well above
// the stack region.
func InstallDevices(m *machine.M, streams [2][]Packet) *DeviceStats {
	io := &shardIO{rx: streams}
	installShardDevices(m, io)
	return &io.stats
}

// shardIO is one machine's host-side NIC state: the ingress queues, the
// device statistics, and — on a serving fleet — the order oracle that
// every transmit is checked against. On a fleet it lives and dies with
// one machine boot; the serving rig folds retired generations into
// per-shard totals at respawn.
type shardIO struct {
	rx    [2][]Packet
	head  [2]int
	stats DeviceStats
	// oracle, when set, checks per-flow transmit order fleet-wide; each
	// inversion it reports is also counted here.
	oracle          *orderOracle
	orderViolations int
	faults          int
	calls           int
}

func (io *shardIO) remaining() int {
	return (len(io.rx[0]) - io.head[0]) + (len(io.rx[1]) - io.head[1])
}

// installShardDevices registers the NIC builtins on m over io. The
// ingress queues are refillable: a serving rig appends to io.rx between
// kmain calls.
func installShardDevices(m *machine.M, io *shardIO) {
	bufAddr := func(dev int64) int64 {
		return int64(len(m.Mem)) - (dev+1)*PktWords
	}
	m.RegisterBuiltin("__rx_poll", func(mm *machine.M, args []int64) (int64, error) {
		dev := args[0]
		if dev < 0 || dev > 1 {
			return 0, fmt.Errorf("clack: rx on bad device %d", dev)
		}
		if io.head[dev] >= len(io.rx[dev]) {
			return 0, nil
		}
		p := io.rx[dev][io.head[dev]]
		io.head[dev]++
		io.stats.Rx[dev]++
		addr := bufAddr(dev)
		if err := mm.WriteWords(addr, p.words()); err != nil {
			return 0, err
		}
		return addr, nil
	})
	m.RegisterBuiltin("__tx", func(mm *machine.M, args []int64) (int64, error) {
		dev, addr := args[0], args[1]
		if dev < 0 || dev > 1 {
			return 0, fmt.Errorf("clack: tx on bad device %d", dev)
		}
		io.stats.Tx[dev]++
		kind := mm.Mem[addr]
		ttl := mm.Mem[addr+1]
		if kind == KindIP {
			if ttl <= 0 {
				io.stats.TxBad = append(io.stats.TxBad,
					fmt.Sprintf("tx dev%d: IP packet with ttl %d", dev, ttl))
			} else {
				io.stats.TxTTLOK++
			}
		}
		if io.oracle != nil {
			flow := mm.Mem[addr+6+payloadFlowWord]
			seq := mm.Mem[addr+6+payloadSeqWord]
			if !io.oracle.check(flow, seq) {
				io.orderViolations++
			}
		}
		return 0, nil
	})
	m.RegisterBuiltin("__drop", func(mm *machine.M, args []int64) (int64, error) {
		io.stats.Dropped++
		return 0, nil
	})
}

// orderOracle is the fleet-global per-flow order check: one monotonic
// sequence ledger shared by every shard's __tx builtin, surviving
// respawns and following a flow across a re-steer. Mutexed — shard
// goroutines transmit concurrently.
type orderOracle struct {
	mu      sync.Mutex
	lastSeq map[int64]int64
}

// check records a transmit of flow's packet seq and reports whether seq
// is above the flow's previous transmit.
func (o *orderOracle) check(flow, seq int64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	ok := seq > o.lastSeq[flow]
	o.lastSeq[flow] = seq
	return ok
}
