// Package clack is the paper's §5.2 system: a subset of the Click
// modular router implemented as Knit components instead of C++ classes.
// It provides the router elements (as cmini sources plus unit
// descriptions), a Click-syntax configuration language that compiles to
// Knit compound units, a synthetic traffic source, and the modular /
// hand-optimized router variants measured in Table 1.
package clack

import (
	"fmt"
	"strings"

	"knit/internal/knit/link"
)

// Packet layout (word offsets). Packets live in a device ring buffer;
// elements manipulate them by address.
//
//	word 0: kind      (0 = IP, 2 = ARP request, 3 = other, 4 = ARP reply)
//	word 1: ttl
//	word 2: checksum  (sum of payload words + dst, 16-bit folded)
//	word 3: src
//	word 4: dst       (high byte selects the output network)
//	word 5: paint     (scratch: ingress device, then egress port)
//	word 6..13: payload
const PktWords = 14

// srcPktH is the shared packet structure definition, textually included
// in every element (components share headers, as OSKit components do).
const srcPktH = `
struct pkt {
    int kind;
    int ttl;
    int checksum;
    int src;
    int dst;
    int paint;
    int payload[8];
};
`

// srcFromDevice polls the receive ring of its device and pushes each
// packet into the graph; the measurement window opens when a packet
// enters the graph (Table 1's methodology).
const srcFromDevice = srcPktH + `
extern int __rx_poll(int dev);
extern int __tick_enter(void);
int push_out(int p);
int dev_no(void);
int step(void) {
    int p = __rx_poll(dev_no());
    if (p == 0) { return 0; }
    __tick_enter();
    struct pkt *k = p;
    k->paint = dev_no();
    push_out(p);
    return 1;
}
`

// srcClassifier dispatches on the packet kind with direct comparisons.
// (Click's *generic* pattern-interpreting Classifier — the one its "fast
// classifier" optimization replaces — lives in internal/click; Clack
// components are written directly against the Knit interfaces, §5.2.)
const srcClassifier = srcPktH + `
int push_ip(int p);
int push_arp(int p);
int push_other(int p);
int push(int p) {
    struct pkt *k = p;
    if (k->kind == 2) { return push_arp(p); }
    if (k->kind == 3) { return push_other(p); }
    return push_ip(p);
}
`

// srcClassifierSafe is Classifier's declared fallback: a conservative
// dispatcher that only forwards the kinds it positively recognizes and
// routes anything else to the discard path, so a degraded router keeps
// serving (and accounting for) every packet. Its initializer exists so
// fault-injection tests can fail a fallback swap mid-flight.
const srcClassifierSafe = srcPktH + `
int push_ip(int p);
int push_arp(int p);
int push_other(int p);
static int engaged;
void safe_init(void) { engaged = 1; }
int safe_push(int p) {
    struct pkt *k = p;
    if (k->kind == 0) { return push_ip(p); }
    if (k->kind == 2) { return push_arp(p); }
    return push_other(p);
}
`

// srcClassifierV2 is the live-upgrade replacement for Classifier:
// identical ports and routing, with the common case (plain IP) tested
// first and an initializer guard — an uninitialized V2 degrades to the
// discard path instead of misrouting, so a botched upgrade loses
// goodput visibly rather than corrupting flows. It deliberately keeps
// Classifier's renames (and no in.push rename), so consumers' generated
// code is byte-identical and the config diff stays minimal.
const srcClassifierV2 = srcPktH + `
int push_ip(int p);
int push_arp(int p);
int push_other(int p);
static int ready;
void v2_init(void) { ready = 1; }
int push(int p) {
    struct pkt *k = p;
    if (ready == 0) { return push_other(p); }
    if (k->kind == 0) { return push_ip(p); }
    if (k->kind == 2) { return push_arp(p); }
    if (k->kind == 3) { return push_other(p); }
    return push_ip(p);
}
`

// srcClassifierBad is the injected-regression classifier for canary
// testing: it serves a few packets, then every call reads far out of
// bounds — an attributed bad-address trap. It loads and links cleanly;
// only the SLO window can catch it.
const srcClassifierBad = srcPktH + `
int push_ip(int p);
int push_arp(int p);
int push_other(int p);
static int served;
int push(int p) {
    struct pkt *k = p;
    served++;
    if (served > 3) { return k->payload[1000000000]; }
    if (k->kind == 2) { return push_arp(p); }
    if (k->kind == 3) { return push_other(p); }
    return push_ip(p);
}
`

// srcARPResponder turns an ARP request around: it rewrites the packet
// into a reply addressed to the requester and pushes it toward the
// egress queue.
const srcARPResponder = srcPktH + `
int push_out(int p);
int push(int p) {
    struct pkt *k = p;
    k->kind = 4;
    int tmp = k->src;
    k->src = k->dst;
    k->dst = tmp;
    k->ttl = 64;
    k->checksum = k->dst;
    for (int i = 0; i < 8; i++) {
        k->checksum = k->checksum + k->payload[i];
    }
    k->checksum = (k->checksum & 65535) + (k->checksum >> 16);
    return push_out(p);
}
`

// srcCheckIPHeader validates TTL and checksum, dropping bad packets —
// Click's CheckIPHeader. The checksum covers the TTL, like the real IP
// header checksum.
const srcCheckIPHeader = srcPktH + `
int push_out(int p);
int push_bad(int p);
int push(int p) {
    struct pkt *k = p;
    if (k->ttl <= 0) { return push_bad(p); }
    int sum = k->ttl + k->dst;
    for (int i = 0; i < 8; i++) {
        sum = sum + k->payload[i];
    }
    sum = (sum & 65535) + (sum >> 16);
    if (sum != k->checksum) { return push_bad(p); }
    return push_out(p);
}
`

// srcLookupIPRoute does a linear route lookup (Click's LookupIPRoute
// over a small static table) and pushes to the matching port.
const srcLookupIPRoute = srcPktH + `
int push_port0(int p);
int push_port1(int p);
static int routes[8];
static int nroutes = 0;
void route_init(void) {
    routes[0] = 10; routes[1] = 0;
    routes[2] = 20; routes[3] = 1;
    routes[4] = 30; routes[5] = 0;
    routes[6] = 0;  routes[7] = 1;
    nroutes = 4;
}
int push(int p) {
    struct pkt *k = p;
    int net = k->dst / 256;
    int port = 1;
    for (int r = 0; r < nroutes; r++) {
        if (routes[r * 2] == net || routes[r * 2] == 0) {
            port = routes[r * 2 + 1];
            break;
        }
    }
    k->paint = port;
    if (port == 0) { return push_port0(p); }
    return push_port1(p);
}
`

// srcDecIPTTL decrements the TTL, sending expired packets to the error
// path.
const srcDecIPTTL = srcPktH + `
int push_out(int p);
int push_expired(int p);
int push(int p) {
    struct pkt *k = p;
    k->ttl = k->ttl - 1;
    if (k->ttl <= 0) { return push_expired(p); }
    return push_out(p);
}
`

// srcFixIPChecksum updates the checksum incrementally after the TTL
// decrement (the RFC 1624 trick real IP forwarders use: no second pass
// over the packet).
const srcFixIPChecksum = srcPktH + `
int push_out(int p);
int push(int p) {
    struct pkt *k = p;
    int c = k->checksum - 1;
    if (c <= 0) { c = c + 65535; }
    k->checksum = c;
    return push_out(p);
}
`

// srcEthEncap rewrites the link-layer source address for the egress
// interface (Click's EtherEncap, word-model style).
const srcEthEncap = srcPktH + `
int push_out(int p);
int dev_no(void);
int push(int p) {
    struct pkt *k = p;
    k->src = 1000 + dev_no();
    return push_out(p);
}
`

// srcQueue buffers the packet address then forwards — the push-through
// analogue of Click's Queue (Clack's graph is all-push).
const srcQueue = srcPktH + `
int push_out(int p);
static int ring[16];
static int head = 0;
static int tail = 0;
int queue_len(void) { return tail - head; }
int push(int p) {
    ring[tail % 16] = p;
    tail++;
    int q = ring[head % 16];
    head++;
    return push_out(q);
}
`

// srcCounter counts packets through it.
const srcCounter = srcPktH + `
int push_out(int p);
static int count = 0;
int counter_read(void) { return count; }
int push(int p) {
    count++;
    return push_out(p);
}
`

// srcToDevice closes the measurement window and hands the packet to the
// transmit ring.
const srcToDevice = srcPktH + `
extern int __tx(int dev, int p);
extern int __tick_exit(void);
int dev_no(void);
int push(int p) {
    __tick_exit();
    return __tx(dev_no(), p);
}
`

// srcDiscard drops the packet (the end of the error path).
const srcDiscard = srcPktH + `
extern int __drop(int p);
extern int __tick_exit(void);
int push(int p) {
    __tick_exit();
    return __drop(p);
}
`

// srcPullQueue is a true Click-style queue: the push side enqueues and
// returns; the pull side dequeues on demand. It decouples the push path
// from the transmit path, unlike the pass-through Queue the standard
// all-push router uses.
const srcPullQueue = srcPktH + `
static int ring[32];
static int head = 0;
static int tail = 0;
int push(int p) {
    if (tail - head >= 32) { return -1; }
    ring[tail % 32] = p;
    tail++;
    return 0;
}
int pull(void) {
    if (head == tail) { return 0; }
    int p = ring[head % 32];
    head++;
    return p;
}
`

// srcToDevicePull drains a pull-side queue into the transmit ring; the
// driver calls drain() after each batch of pushes, Click's
// ToDevice-scheduling pattern.
const srcToDevicePull = srcPktH + `
extern int __tx(int dev, int p);
extern int __tick_exit(void);
int pull(void);
int dev_no(void);
int drain(void) {
    int n = 0;
    while (1) {
        int p = pull();
        if (p == 0) { break; }
        __tick_exit();
        __tx(dev_no(), p);
        n++;
    }
    return n;
}
`

// genOSWork generates the "rest of the kernel": the ethernet driver and
// housekeeping code that runs between packets on a real router. Its only
// modelled effect is instruction-cache pressure — its large straight-line
// footprint evicts router code between packets, exactly the environment
// in which the paper measured Table 1 (a ~100 KB kernel against an 8 KB
// I-cache). It runs outside the per-packet measurement window and is
// identical in every variant.
func genOSWork() string {
	var b strings.Builder
	b.WriteString("static int pool[512];\nint os_work(void) {\n    int s = 0;\n")
	for i := 0; i < 320; i++ {
		fmt.Fprintf(&b, "    s += pool[%d];\n", i)
	}
	b.WriteString("    return s;\n}\n")
	return b.String()
}

// ElementSources maps file names to element implementations.
func ElementSources() link.Sources {
	return link.Sources{
		"oswork.c":         genOSWork(),
		"fromdevice.c":     srcFromDevice,
		"classifier.c":     srcClassifier,
		"classifiersafe.c": srcClassifierSafe,
		"classifierv2.c":   srcClassifierV2,
		"classifierbad.c":  srcClassifierBad,
		"arpresponder.c":   srcARPResponder,
		"checkipheader.c":  srcCheckIPHeader,
		"lookupiproute.c":  srcLookupIPRoute,
		"deciipttl.c":      srcDecIPTTL,
		"fixipchecksum.c":  srcFixIPChecksum,
		"ethencap.c":       srcEthEncap,
		"queue.c":          srcQueue,
		"counter.c":        srcCounter,
		"todevice.c":       srcToDevice,
		"discard.c":        srcDiscard,
		"pullqueue.c":      srcPullQueue,
		"todevicepull.c":   srcToDevicePull,
		"devno0.c":         "int dev_no(void) { return 0; }\n",
		"devno1.c":         "int dev_no(void) { return 1; }\n",
	}
}

// ElementUnits is the unit-language description of the element library.
// Every element imports its output ports (Push bundles) and exports its
// input port; FromDevice exports a Step bundle the driver polls. A
// driver's Main bundle has two entries: kmain polls every lane until the
// traffic runs dry, and turn serves one lane once.
const ElementUnits = `
bundletype Push   = { push }
bundletype Step   = { step }
bundletype DevNo  = { dev_no }
bundletype Stat   = { counter_read }
bundletype Main   = { kmain, turn }
bundletype OsWork = { os_work }

unit OSWork = {
  exports [ osw : OsWork ];
  files { "oswork.c" };
}

unit DevNo0 = {
  exports [ dev : DevNo ];
  files { "devno0.c" };
}
unit DevNo1 = {
  exports [ dev : DevNo ];
  files { "devno1.c" };
}

unit FromDevice = {
  imports [ out : Push, dev : DevNo ];
  exports [ src : Step ];
  depends { src needs (out + dev); };
  files { "fromdevice.c" };
  rename { out.push to push_out; };
}

unit Classifier = {
  imports [ ip : Push, arp : Push, other : Push ];
  exports [ in : Push ];
  depends { in needs (ip + arp + other); };
  fallback ClassifierSafe;
  files { "classifier.c" };
  rename {
    ip.push to push_ip;
    arp.push to push_arp;
    other.push to push_other;
  };
}

// ClassifierSafe is the supervision layer's degraded-mode stand-in for
// Classifier: identical ports, conservative dispatch. A supervisor that
// exhausts Classifier's restart budget loads it dynamically and
// interposes it over the failing instance's exports.
unit ClassifierSafe = {
  imports [ ip : Push, arp : Push, other : Push ];
  exports [ in : Push ];
  initializer safe_init for in;
  depends { in needs (ip + arp + other); };
  files { "classifiersafe.c" };
  rename {
    ip.push to push_ip;
    arp.push to push_arp;
    other.push to push_other;
    in.push to safe_push;
  };
}

// ClassifierV2 is the live-reconfiguration upgrade target for
// Classifier: same ports, same renames, reordered dispatch behind an
// initializer guard. See srcClassifierV2.
unit ClassifierV2 = {
  imports [ ip : Push, arp : Push, other : Push ];
  exports [ in : Push ];
  initializer v2_init for in;
  depends { in needs (ip + arp + other); };
  fallback ClassifierSafe;
  files { "classifierv2.c" };
  rename {
    ip.push to push_ip;
    arp.push to push_arp;
    other.push to push_other;
  };
}

// ClassifierBad is the canary-rollback test subject: links and
// initializes cleanly, regresses under traffic. See srcClassifierBad.
unit ClassifierBad = {
  imports [ ip : Push, arp : Push, other : Push ];
  exports [ in : Push ];
  depends { in needs (ip + arp + other); };
  files { "classifierbad.c" };
  rename {
    ip.push to push_ip;
    arp.push to push_arp;
    other.push to push_other;
  };
}

unit ARPResponder = {
  imports [ out : Push ];
  exports [ in : Push ];
  depends { in needs out; };
  files { "arpresponder.c" };
  rename { out.push to push_out; };
}

unit CheckIPHeader = {
  imports [ out : Push, bad : Push ];
  exports [ in : Push ];
  depends { in needs (out + bad); };
  files { "checkipheader.c" };
  rename { out.push to push_out; bad.push to push_bad; };
}

unit LookupIPRoute = {
  imports [ port0 : Push, port1 : Push ];
  exports [ in : Push ];
  initializer route_init for in;
  depends { in needs (port0 + port1); };
  files { "lookupiproute.c" };
  rename { port0.push to push_port0; port1.push to push_port1; };
}

unit DecIPTTL = {
  imports [ out : Push, expired : Push ];
  exports [ in : Push ];
  depends { in needs (out + expired); };
  files { "deciipttl.c" };
  rename { out.push to push_out; expired.push to push_expired; };
}

unit FixIPChecksum = {
  imports [ out : Push ];
  exports [ in : Push ];
  depends { in needs out; };
  files { "fixipchecksum.c" };
  rename { out.push to push_out; };
}

unit EthEncap = {
  imports [ out : Push, dev : DevNo ];
  exports [ in : Push ];
  depends { in needs (out + dev); };
  files { "ethencap.c" };
  rename { out.push to push_out; };
}

unit Queue = {
  imports [ out : Push ];
  exports [ in : Push ];
  depends { in needs out; };
  files { "queue.c" };
  rename { out.push to push_out; };
}

unit Counter = {
  imports [ out : Push ];
  exports [ in : Push, stat : Stat ];
  depends { (in + stat) needs out; };
  files { "counter.c" };
  rename { out.push to push_out; };
}

unit ToDevice = {
  imports [ dev : DevNo ];
  exports [ in : Push ];
  depends { in needs dev; };
  files { "todevice.c" };
}

unit Discard = {
  exports [ in : Push ];
  files { "discard.c" };
}

// Pull-side elements (Click's push/pull duality): PullQueue's push side
// only enqueues; ToDevicePull drains it when the driver schedules it.
bundletype Pull  = { pull }
bundletype Drain = { drain }

unit PullQueue = {
  exports [ in : Push, out : Pull ];
  files { "pullqueue.c" };
}

unit ToDevicePull = {
  imports [ q : Pull, dev : DevNo ];
  exports [ sink : Drain ];
  depends { sink needs (q + dev); };
  files { "todevicepull.c" };
}
`
