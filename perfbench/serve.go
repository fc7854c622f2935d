package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/knit/fleet"
	"knit/internal/knit/observe"
	"knit/internal/knit/overload"
	"knit/internal/machine"
)

type serveKind int

const (
	saturated serveKind = iota
	overloaded
)

const (
	shards = 2
	// tracePackets is the serve trace length; longer passes replay it.
	tracePackets = 1 << 16
	// sampleEvery is the traced run's sampling stride: one packet in
	// sampleEvery records spans.
	sampleEvery = 256
	// overloadPPS is serve-overload's fixed offered rate, about 1.6x the
	// serve-saturated throughput measured on a 2-core x86-64 host; it is
	// never re-probed, so a faster or slower fleet shows up as less or
	// more shedding at the same offered load.
	overloadPPS = 260000
	// tickEvery is how many offered packets pass between controller Ticks.
	tickEvery = 1024
	// highBudget is the High class's admission wait budget.
	highBudget = 2 * time.Millisecond
	// redeliver is the fleet's redelivery attempts in serve-overload.
	redeliver = 3
	// killGap spaces the seeded per-shard kill schedule on the offered
	// stream: a shard's j-th kill is due at offered packet j*killGap plus
	// a seeded jitter below killGap/2, and falls on the first packet the
	// shard serves at or after that position. Kills are due only in the
	// first 7/8 of the pass, so every one lands before it ends. The kill
	// count therefore depends on the seed and the pass length alone, not
	// on how many packets the fleet admits; that matters because every
	// respawned machine stays in memory (the build result keeps each
	// machine it boots), so peak memory follows the kill count.
	killGap = 100000
	// killMinServed is how many packets a shard serves between two kills:
	// more than the fleet batch (64), so no batch is killed twice and
	// redelivery completes.
	killMinServed = 256
)

// killSchedule draws each shard's kill positions on an offered stream of
// the given length.
func killSchedule(seed int64, offered int) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	limit := offered / 8 * 7
	kills := make([][]int32, shards)
	for id := range kills {
		for j := 1; (j+1)*killGap <= limit; j++ {
			kills[id] = append(kills[id], int32(j*killGap+rng.Intn(killGap/2)))
		}
	}
	return kills
}

// overloadConfig is the controller's configuration: clack's overload
// soak's breaker settings with the package's default remap bound, which
// leaves some of a tripped shard's flows home as half-open probe traffic.
var overloadConfig = overload.Config{
	SLO:       observe.SLO{MinCalls: 16, Windows: 4, PromoteAfter: 2},
	TripAfter: 2,
	CoolTicks: 4,
}

// classOf assigns classes by flow key: 20% High, 60% Normal, 20% Low.
func classOf(flow uint64) overload.Class {
	switch flow % 10 {
	case 0, 1:
		return overload.High
	case 8, 9:
		return overload.Low
	}
	return overload.Normal
}

var errKilled = errors.New("perfbench: scheduled shard kill")

// rig is the benchmark's serving rig: per-shard NICs and ledgers, the
// fleet's Setup and batch handler, and the seeded kill schedule.
type rig struct {
	tr    *traffic
	order orderLedger
	base  time.Time // start of the pass; set before any traffic
	nics  []*nic
	leds  []*ledger
	kills [][]int32 // per-shard kill positions on the offered stream
	// Per shard, written on the shard's goroutine only: the next kill in
	// its schedule, packets served since its last kill, and when its last
	// kill returned.
	nextKill  []int
	sinceKill []int
	killedAt  []int64
	inject    time.Duration
	winLen    int64 // measurement window length, ns
	high      func(uint64) bool
}

func (rg *rig) now() int64 { return int64(time.Since(rg.base)) }

// setup installs fresh NICs on every machine the fleet boots; a
// respawned shard keeps its ledger, and anything the dead machine held
// is settled as lost first.
func (rg *rig) setup(id int, m *machine.M) error {
	if id == fleet.Prototype {
		(&nic{tr: rg.tr, order: make(orderLedger, len(rg.tr.perFlow)), led: newLedger(0)}).install(m)
		return nil
	}
	if old := rg.nics[id]; old != nil {
		old.settle()
	}
	// A serving machine runs for as long as the pass does; the
	// supervisor's per-call watchdog fuel still stops a runaway call,
	// so lift the machine-lifetime instruction cap.
	m.StepLimit = math.MaxInt64
	n := &nic{tr: rg.tr, order: rg.order, led: rg.leds[id], clock: rg.now, winLen: rg.winLen, high: rg.high}
	n.install(m)
	rg.nics[id] = n
	return nil
}

// handle serves a batch packet by packet: one supervised kmain call per
// packet, an Ack after each, and the shard's next scheduled kill after
// the first packet it serves at or past the kill's position.
func (rg *rig) handle(sh *fleet.Shard[item], batch []item) error {
	id := sh.ID
	led, n := rg.leds[id], rg.nics[id]
	start := rg.now()
	if k := rg.killedAt[id]; k != 0 {
		led.respawnNs = append(led.respawnNs, start-k)
		rg.killedAt[id] = 0
	}
	for i, it := range batch {
		var hs, cs int64
		if it.span != 0 {
			hs = rg.now()
		}
		n.push(it)
		if it.span != 0 {
			cs = rg.now()
		}
		if rg.inject > 0 {
			spin(rg.inject)
		}
		if _, err := sh.Sup.Call("main", "kmain", 1); err != nil {
			led.callErrs++
		}
		if it.span != 0 {
			ce := rg.now()
			led.callNs = append(led.callNs, ce-cs)
			led.spans = append(led.spans, span{it.span, "supervise.call", cs, ce})
		}
		if n.remaining() > 0 || n.busy {
			n.settle()
		}
		sh.Ack(i + 1)
		led.served++
		if it.span != 0 {
			led.spans = append(led.spans, span{it.span, "fleet.handle", hs, rg.now()})
		}
		rg.sinceKill[id]++
		if ks, next := rg.kills[id], rg.nextKill[id]; next < len(ks) && it.seq >= ks[next] &&
			rg.sinceKill[id] >= killMinServed {
			rg.nextKill[id]++
			rg.sinceKill[id] = 0
			rg.killedAt[id] = rg.now()
			led.batchNs = append(led.batchNs, rg.killedAt[id]-start)
			return errKilled
		}
	}
	led.batchNs = append(led.batchNs, rg.now()-start)
	return nil
}

// serveEnv is a serve workload's set-up.
type serveEnv struct {
	c     config
	kind  serveKind
	tr    *traffic
	r     *routers
	kills [][]int32
	fl    *fleet.Fleet[item]
	rg    *rig
}

func setupServe(c config, kind serveKind) (*serveEnv, error) {
	spec := clack.DefaultFlowTraffic(tracePackets)
	spec.Seed = c.seed
	e := &serveEnv{c: c, kind: kind, kills: make([][]int32, shards)}
	if kind == overloaded {
		spec.Flows = 64
		e.kills = killSchedule(c.seed, offeredCount(c.seconds))
	}
	e.tr = newTraffic(spec)
	var err error
	if e.r, err = buildRouters(true); err != nil {
		return nil, err
	}
	return e, e.boot()
}

// boot starts a fresh fleet over the compiled router: one post-init
// snapshot, then every shard restored from it.
func (e *serveEnv) boot() error {
	windows := windowCount(e.c.seconds)
	rg := &rig{
		tr:        e.tr,
		order:     make(orderLedger, len(e.tr.perFlow)),
		nics:      make([]*nic, shards),
		leds:      make([]*ledger, shards),
		kills:     e.kills,
		nextKill:  make([]int, shards),
		sinceKill: make([]int, shards),
		killedAt:  make([]int64, shards),
		inject:    e.c.inject,
		winLen:    int64(e.c.seconds*float64(time.Second)) / int64(windows),
		high:      func(f uint64) bool { return classOf(f) == overload.High },
	}
	for i := range rg.leds {
		rg.leds[i] = newLedger(windows)
	}
	redo := 0
	if e.kind == overloaded {
		redo = redeliver
	}
	fl, err := fleet.New[item](e.r.compiled, fleet.Config{
		Shards:            shards,
		RedeliverAttempts: redo,
		Setup:             rg.setup,
	}, rg.handle)
	if err != nil {
		return err
	}
	e.fl, e.rg = fl, rg
	return nil
}

// passStats is what one timed pass measured on the producer side.
type passStats struct {
	offered  int
	perClass [overload.NumClasses]int
	blocked  int // Submits that found their shard's queue full
	elapsed  time.Duration
	steal    float64 // share of processor time stolen during the pass
	closeErr error
	ctrl     overload.Stats
	spans    []span
	submitNs []int64
	tickNs   []int64
	genLagNs []int64
}

// saturatedPass is the closed loop: one producer submitting through the
// blocking fleet.Submit as fast as backpressure allows.
func (e *serveEnv) saturatedPass(seconds float64, traced bool) *passStats {
	fl, rg := e.fl, e.rg
	ps := &passStats{}
	dur := int64(seconds * float64(time.Second))
	pos, epoch := 0, int32(0)
	rg.base = time.Now()
	for n := 0; ; n++ {
		if n%256 == 0 && rg.now() >= dur {
			ps.offered = n
			break
		}
		var g0 int64
		fp := &e.tr.pkts[pos]
		it := item{flow: fp.Flow, idx: int32(pos), epoch: epoch}
		if traced && n%sampleEvery == 0 {
			g0 = rg.now()
			it.span = int32(n/sampleEvery + 1)
		}
		sid := fleet.FlowShard(fp.Flow, shards)
		if fl.PendingLen(sid)+1 >= fl.Batch() && fl.QueueDepth(sid) >= fl.QueueCap(sid) {
			ps.blocked++
		}
		it.t0 = rg.now()
		if err := fl.Submit(fp.Flow, it); err != nil {
			ps.closeErr = err
		}
		if it.span != 0 {
			end := rg.now()
			ps.spans = append(ps.spans, span{it.span, "gen", g0, end}, span{it.span, "fleet.submit", it.t0, end})
		}
		if pos++; pos == len(e.tr.pkts) {
			pos, epoch = 0, epoch+1
		}
	}
	if err := fl.Close(); err != nil {
		ps.closeErr = err
	}
	ps.elapsed = time.Duration(rg.now())
	return ps
}

// offeredCount is how many packets an open-loop pass of the given length
// offers.
func offeredCount(seconds float64) int { return int(overloadPPS * seconds) }

// overloadPass is the open loop: packet i is due at i/overloadPPS and
// goes to the overload controller then, however the fleet is doing;
// High traffic may wait for a queue slot until highBudget after it was
// due, the rest sheds at once when refused. Measuring the budget from
// the due time keeps a late generator from falling further behind.
func (e *serveEnv) overloadPass(seconds float64, traced bool) *passStats {
	fl, rg := e.fl, e.rg
	ctrl := overload.NewController(fl, overloadConfig)
	ps := &passStats{offered: offeredCount(seconds)}
	interval := float64(time.Second) / overloadPPS
	pos, epoch := 0, int32(0)
	rg.base = time.Now()
	for i := 0; i < ps.offered; i++ {
		due := int64(float64(i) * interval)
		now := rg.now()
		if due > now {
			time.Sleep(time.Duration(due - now))
			now = rg.now()
		}
		fp := &e.tr.pkts[pos]
		it := item{flow: fp.Flow, t0: due, idx: int32(pos), epoch: epoch, seq: int32(i)}
		if traced && i%sampleEvery == 0 {
			it.span = int32(i/sampleEvery + 1)
		}
		class := classOf(fp.Flow)
		ps.perClass[class]++
		s := now
		if it.span != 0 {
			s = rg.now()
		}
		if class == overload.High {
			ctrl.SubmitDeadline(fp.Flow, class, it, rg.base.Add(time.Duration(due)+highBudget))
		} else {
			ctrl.TrySubmit(fp.Flow, class, it)
		}
		if i%16 == 0 || it.span != 0 {
			end := rg.now()
			ps.submitNs = append(ps.submitNs, end-s)
			ps.genLagNs = append(ps.genLagNs, now-due)
			if it.span != 0 {
				ps.spans = append(ps.spans, span{it.span, "gen.wait", due, now},
					span{it.span, "gen", now, end}, span{it.span, "overload.submit", s, end})
			}
		}
		if (i+1)%tickEvery == 0 {
			t := rg.now()
			ctrl.Tick()
			ps.tickNs = append(ps.tickNs, rg.now()-t)
		}
		if pos++; pos == len(e.tr.pkts) {
			pos, epoch = 0, epoch+1
		}
	}
	// Settle: let barriers drain and breakers close, then stop.
	for i := 0; i < 8; i++ {
		ctrl.Tick()
		time.Sleep(time.Millisecond)
	}
	ctrl.Drain(time.Now().Add(10 * time.Second))
	ps.closeErr = fl.Close()
	ps.elapsed = time.Duration(rg.now())
	ps.ctrl = ctrl.Stats()
	return ps
}

func (e *serveEnv) pass(seconds float64, traced bool) *passStats {
	runtime.GC()
	steal := hostCPU()
	var ps *passStats
	if e.kind == overloaded {
		ps = e.overloadPass(seconds, traced)
	} else {
		ps = e.saturatedPass(seconds, traced)
	}
	ps.steal = steal.since()
	return ps
}

// served is a pass's completed-work view: device outcomes summed over
// shard ledgers and the fleet's own counters.
type served struct {
	ok, wrong, inversions, lost, callErrs int
	handled                               int
	fleetServed, fleetDropped, redeliv    uint64
	respawns                              int
	perShard                              []int
	win                                   []window // merged over shards
	callNs, batchNs, respNs               []int64
	spans                                 []span
}

// tally checks a finished pass's books and returns its failures: every
// offered packet must be exactly one of completed correctly, shed, or
// a counted failure.
func (e *serveEnv) tally(ps *passStats, out *outcome) (*served, int) {
	s := &served{}
	for id, sh := range e.fl.Shards() {
		l := e.rg.leds[id]
		s.ok += l.ok
		s.wrong += l.wrong
		s.inversions += l.inversions
		s.lost += l.lost
		s.callErrs += l.callErrs
		s.handled += l.served
		if s.win == nil {
			s.win = make([]window, len(l.win))
		}
		for w := range l.win {
			s.win[w].done += l.win[w].done
			s.win[w].lat = append(s.win[w].lat, l.win[w].lat...)
			s.win[w].latHigh = append(s.win[w].latHigh, l.win[w].latHigh...)
		}
		s.callNs = append(s.callNs, l.callNs...)
		s.batchNs = append(s.batchNs, l.batchNs...)
		s.respNs = append(s.respNs, l.respawnNs...)
		s.spans = append(s.spans, l.spans...)
		s.fleetServed += sh.Served()
		s.fleetDropped += sh.Dropped()
		s.redeliv += sh.Redelivered()
		s.respawns += sh.Respawns()
		s.perShard = append(s.perShard, int(sh.Served()))
		if l.firstWrong != "" {
			out.problem("shard %d: %s", id, l.firstWrong)
		}
		if want := len(e.kills[id]); sh.Respawns() != want {
			out.problem("shard %d respawned %d times, schedule says %d", id, sh.Respawns(), want)
		}
	}
	failed := s.wrong + s.inversions + s.lost + s.callErrs + int(s.fleetDropped)
	if s.fleetServed != uint64(s.handled) || s.ok+s.wrong+s.inversions > s.handled {
		out.problem("fleet served %d, handler finished %d, devices completed %d",
			s.fleetServed, s.handled, s.ok+s.wrong+s.inversions)
	}
	admitted := uint64(ps.offered)
	if e.kind == overloaded {
		admitted = ps.ctrl.Admitted
		if ps.ctrl.Submitted != uint64(ps.offered) || ps.ctrl.Submitted != ps.ctrl.Admitted+ps.ctrl.ShedTotal {
			out.problem("controller books: submitted %d of %d offered, admitted %d + shed %d",
				ps.ctrl.Submitted, ps.offered, ps.ctrl.Admitted, ps.ctrl.ShedTotal)
		}
	}
	if missing := int(admitted) - s.handled - int(s.fleetDropped); missing != 0 {
		out.problem("%d admitted packets neither served nor dropped", missing)
		failed += max(missing, 0)
	}
	if err := killErrors(ps.closeErr, s.respawns); err != nil {
		out.problem("%v", err)
	}
	if s.wrong+s.inversions+s.lost+s.callErrs+int(s.fleetDropped) > 0 {
		out.problem("wrong %d, order inversions %d, lost %d, call errors %d, fleet-dropped %d",
			s.wrong, s.inversions, s.lost, s.callErrs, s.fleetDropped)
	}
	return s, failed
}

// killErrors checks that the fleet's shard errors are exactly the
// scheduled kills.
func killErrors(err error, respawns int) error {
	var errs []error
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		errs = j.Unwrap()
	} else if err != nil {
		errs = []error{err}
	}
	for _, e := range errs {
		if !errors.Is(e, errKilled) {
			return fmt.Errorf("shard error: %w", e)
		}
	}
	if len(errs) != respawns {
		return fmt.Errorf("%d shard errors for %d respawns", len(errs), respawns)
	}
	return nil
}

func runServe(c config, kind serveKind) (*outcome, error) {
	out := newOutcome()
	var st setupTimes
	var config []time.Duration
	var pairs [][2]build.Timings
	var e *serveEnv
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.fl.Close(); err != nil {
				return nil, err
			}
			e = nil
		}
		err := st.measure(func() (err error) {
			e, err = setupServe(c, kind)
			return err
		})
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, [2]build.Timings{e.r.modular.Timings, e.r.flat.Timings})
		config = append(config, e.r.config)
	}
	st.report(out)
	if err := costModel(e.r, e.tr, out); err != nil {
		return nil, err
	}

	ps := e.pass(c.seconds, false)
	s, failed := e.tally(ps, out)
	out.attempted += ps.offered
	out.failed += failed
	warm := e.r.compiled.Timings
	if c.trace {
		untracedOps := summarize(s.win, e.rg.winLen).ops / (1 - ps.steal)
		// A fresh image for the traced pass: a Result keeps every machine
		// it ever booted, so reusing it would carry the first pass's
		// respawned machines into this one's memory.
		var err error
		if e.r.compiled, err = buildRouter(clack.Variant{}, build.NewCache(), machine.BackendCompiled); err != nil {
			return nil, err
		}
		if err := e.boot(); err != nil {
			return nil, err
		}
		ps = e.pass(c.seconds, true)
		s, failed = e.tally(ps, out)
		out.attempted += ps.offered
		out.failed += failed
		out.set("trace.overhead_frac", "frac", 1-ratio(summarize(s.win, e.rg.winLen).ops/(1-ps.steal), untracedOps))
		spans := analyzeSpans(append(ps.spans, s.spans...), out)
		var waits []int64
		for _, sp := range spans {
			if sp.Name == "fleet.wait" {
				waits = append(waits, sp.End-sp.Start)
			}
		}
		out.detail["fleet.queue_wait_us_p50"] = percentile(waits, 50) / 1e3
		path, err := writeSpans(fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed), spans)
		if err != nil {
			return nil, err
		}
		out.detail["spans_file"] = path
		if err := machineWall(e.r.compiled, e.tr, 8192, 5, out); err != nil {
			return nil, err
		}
	}

	ws := summarize(s.win, e.rg.winLen)
	stealFree(out, ws.ops, ws.p90/1e3, ps.steal)
	out.set("goodput_frac", "frac", ratio(float64(s.ok), float64(ps.offered)))
	out.detail["op"] = "packet"
	out.detail["backend"] = "compiled"
	out.detail["offered"] = ps.offered
	out.detail["completed"] = s.ok
	out.detail["windows"] = ws.perWindow
	out.detail["latency_samples"] = ws.samples
	out.detail["latency_mean_us"] = ws.mean / 1e3
	out.detail["latency_p50_us"] = ws.p50 / 1e3
	out.detail["latency_p99_us"] = ws.p99 / 1e3
	out.detail["ops_per_s_whole_pass"] = opsPerSec(s.ok, ps.elapsed)
	out.detail["supervise.call_ns_p50"] = percentile(s.callNs, 50)
	out.detail["fleet.batch_ns_p50"] = percentile(s.batchNs, 50)
	out.detail["served_per_shard"] = s.perShard
	var busy int64
	for _, b := range s.batchNs {
		busy += b
	}
	out.detail["fleet.busy_frac"] = ratio(float64(busy), float64(shards)*float64(ps.elapsed))
	out.detail["fleet.busy_ns_per_packet"] = ratio(float64(busy), float64(s.handled))
	if kind == overloaded {
		out.detail["offered_pps"] = float64(overloadPPS)
		out.detail["kills_scheduled"] = []int{len(e.kills[0]), len(e.kills[1])}
		out.detail["high_latency_p99_us"] = ws.highP99 / 1e3
		out.detail["high_latency_samples"] = ws.highSamples
		out.detail["fleet.respawn_us_p50"] = percentile(s.respNs, 50) / 1e3
		out.detail["overload.submit_ns_p50"] = percentile(ps.submitNs, 50)
		out.detail["overload.tick_us_p50"] = percentile(ps.tickNs, 50) / 1e3
		out.detail["clack.gen_lag_p99_us"] = percentile(ps.genLagNs, 99) / 1e3
	}

	reportBuild(out, pairs, config)
	out.set("build.cache_hit_ratio", "frac", ratio(float64(warm.CacheHits), float64(warm.CompileJobs)))
	out.set("assemble.assemblies", "count", 0)
	var restarts, swaps uint64
	for _, im := range e.fl.Report().Instances {
		restarts += im.Restarts
		swaps += im.Swaps
	}
	out.set("supervise.restarts", "count", float64(restarts))
	out.set("supervise.swaps", "count", float64(swaps))
	most, sum := 0, 0
	for _, n := range s.perShard {
		most, sum = max(most, n), sum+n
	}
	out.set("fleet.shard_imbalance", "frac", ratio(float64(most*len(s.perShard)), float64(sum))-1)
	out.set("fleet.submit_blocked_frac", "frac", ratio(float64(ps.blocked), float64(ps.offered)))
	out.set("fleet.respawns", "count", float64(s.respawns))
	out.set("fleet.redelivered", "count", float64(s.redeliv))
	out.set("fleet.dropped", "count", float64(s.fleetDropped))
	for cl := overload.Class(0); cl < overload.NumClasses; cl++ {
		out.set("overload.shed_frac_"+cl.String(), "frac",
			ratio(float64(ps.ctrl.Shed[cl]), float64(ps.perClass[cl])))
	}
	out.set("overload.trips", "count", float64(ps.ctrl.Trips))
	out.set("overload.resteers", "count", float64(ps.ctrl.Resteers))
	out.set("overload.brownout_engaged", "count", float64(ps.ctrl.BrownoutEngaged))
	return out, nil
}

// idleServing reports the serving layers' counters for a workload that
// does not serve: they did no work.
func idleServing(out *outcome) {
	for _, name := range []string{"supervise.restarts", "supervise.swaps", "fleet.respawns",
		"fleet.redelivered", "fleet.dropped", "overload.trips", "overload.resteers",
		"overload.brownout_engaged"} {
		out.set(name, "count", 0)
	}
	for _, name := range []string{"fleet.shard_imbalance", "fleet.submit_blocked_frac",
		"overload.shed_frac_high", "overload.shed_frac_normal", "overload.shed_frac_low"} {
		out.set(name, "frac", 0)
	}
}
