package clack

import "knit/internal/knit/link"

// This file is the Table 1 "hand optimized" router: the 24 modular
// components rewritten "in a less modular way: combining 24 separate
// components into just 2 components, converting the result to idiomatic
// C, and eliminating redundant data fetches" (§6). The IP fast path is
// one fused pass — classification by direct comparison, a single
// checksum loop reused for validation and the rewritten header — and the
// ARP/discard slow paths are a second component.

// The manual merge is conservative, as a human rewrite would be: the
// element algorithms are unchanged (the route lookup still walks its
// table), the code is shared generically across both devices (one
// handle(), runtime dev/port values, pooled queue rings) where the
// modular graph had per-device element instances. Its two genuine wins
// are structural: all calls become intra-file statics, and the payload
// is walked once instead of twice ("eliminating redundant data
// fetches"). What it cannot do — and Knit's flattening does — is
// specialize each device's chain and fold the per-instance constants.
// The merged file reads top-down, entry points first, the way a person
// rewrites a component stack: steps, then the big handle(), then the
// helpers. With a define-before-use inliner (gcc 2.95) that order leaves
// several helper calls un-inlined — one of the residual costs Knit's
// flattening (which sorts definitions callees-first) removes.
const srcHandPath = srcPktH + `
extern int __rx_poll(int dev);
extern int __tx(int dev, int p);
extern int __tick_enter(void);
extern int __tick_exit(void);
int push_arp(int p);
int push_disc(int p);
static int handle(int dev, int p);
static int route_lookup(int net);
static int payload_sum(struct pkt *k);
static int enqueue(int port, int p);

static int counts[2];
static int rings[32];
static int heads[2];
static int tails[2];
static int routes[8];
static int nroutes = 0;

static int step_dev(int dev) {
    int p = __rx_poll(dev);
    if (p == 0) { return 0; }
    __tick_enter();
    handle(dev, p);
    return 1;
}

int step0(void) { return step_dev(0); }
int step1(void) { return step_dev(1); }

static int handle(int dev, int p) {
    struct pkt *k = p;
    k->paint = dev;
    if (k->kind == 2) { return push_arp(p); }
    if (k->kind != 0) { return push_disc(p); }
    if (k->ttl <= 0) { return push_disc(p); }
    int sum = payload_sum(k);
    if (sum != k->checksum) { return push_disc(p); }
    int port = route_lookup(k->dst / 256);
    k->paint = port;
    k->ttl = k->ttl - 1;
    if (k->ttl <= 0) { return push_disc(p); }
    int c = sum - 1;
    if (c <= 0) { c = c + 65535; }
    k->checksum = c;
    k->src = 1000 + port;
    int q = enqueue(port, p);
    counts[port]++;
    __tick_exit();
    return __tx(port, q);
}

static int route_lookup(int net) {
    int port = 1;
    for (int r = 0; r < nroutes; r++) {
        if (routes[r * 2] == net || routes[r * 2] == 0) {
            port = routes[r * 2 + 1];
            break;
        }
    }
    return port;
}

static int payload_sum(struct pkt *k) {
    int sum = k->ttl + k->dst;
    for (int i = 0; i < 8; i++) {
        sum = sum + k->payload[i];
    }
    return (sum & 65535) + (sum >> 16);
}

static int enqueue(int port, int p) {
    rings[port * 16 + tails[port] % 16] = p;
    tails[port]++;
    int q = rings[port * 16 + heads[port] % 16];
    heads[port]++;
    return q;
}

int counter_read(void) { return counts[0] + counts[1]; }

void hand_init(void) {
    routes[0] = 10; routes[1] = 0;
    routes[2] = 20; routes[3] = 1;
    routes[4] = 30; routes[5] = 0;
    routes[6] = 0;  routes[7] = 1;
    nroutes = 4;
}
`

const srcHandARP = srcPktH + `
extern int __tx(int dev, int p);
extern int __drop(int p);
extern int __tick_exit(void);
int arp_push(int p) {
    struct pkt *k = p;
    k->kind = 4;
    int tmp = k->src;
    k->src = k->dst;
    k->dst = tmp;
    k->ttl = 64;
    int sum = k->dst;
    for (int i = 0; i < 8; i++) {
        sum = sum + k->payload[i];
    }
    k->checksum = (sum & 65535) + (sum >> 16);
    __tick_exit();
    return __tx(k->paint, p);
}
int disc_push(int p) {
    __tick_exit();
    return __drop(p);
}
`

// HandOptUnits declares the 2-component router; the top unit keeps the
// name ClackRouter so both variants build identically, and links the
// same generated RouterDriver.
const HandOptUnits = `
unit HandPath = {
  imports [ arp : Push, disc : Push ];
  exports [ s0 : Step, s1 : Step, stat : Stat ];
  initializer hand_init for s0;
  depends { (s0 + s1 + stat) needs (arp + disc); };
  files { "handpath.c" };
  rename {
    s0.step to step0;
    s1.step to step1;
    arp.push to push_arp;
    disc.push to push_disc;
  };
}

unit HandARP = {
  exports [ arp : Push, disc : Push ];
  files { "handarp.c" };
  rename {
    arp.push to arp_push;
    disc.push to disc_push;
  };
}

unit ClackRouter = {
  exports [ main : Main ];
  link {
    [arp, disc] <- HandARP <- [];
    [s0, s1, hstat] <- HandPath <- [arp, disc];
    [osw] <- OSWork <- [];
    [main] <- RouterDriver <- [s0, s1, osw];
  };
}
`

// HandOptSources returns the hand-optimized router's sources.
func HandOptSources() link.Sources {
	return link.Sources{
		"handpath.c": srcHandPath,
		"handarp.c":  srcHandARP,
	}
}
