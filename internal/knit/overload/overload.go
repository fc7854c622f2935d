// Package overload keeps a serving fleet answering under more load
// than it can carry. It layers four mechanisms over fleet + supervise +
// observe, each engaging earlier than the one after it:
//
//  1. Admission control: TrySubmit never blocks the producer; when a
//     shard cannot take an item, the item is shed by priority class —
//     Low first (above LowWater pressure), Normal only above HighWater,
//     High only when the queue is hard-full (or, with SubmitDeadline,
//     after a bounded wait for a slot).
//  2. Brownout: when mean fleet pressure crosses BrownoutAt, every
//     shard is switched to its declared fallback wiring (the paper's
//     interposition, applied fleet-wide via supervise.DegradeAll) —
//     degrade the work before shedding Normal traffic; restore when
//     pressure falls below BrownoutClearAt.
//
// LowWater, HighWater, BrownoutAt and BrownoutClearAt are package
// constants, documented where they are declared.
//  3. Per-shard circuit breakers: each shard's windowed trap rate and
//     cycle p99 (observe.Window over Shard.HealthSample) is judged
//     against its closed siblings by the shared observe.SLO judge — the
//     same one the canary controller uses. Breaching verdicts or a
//     respawn trip the shard open; a cooldown later it goes half-open
//     and serves probe traffic; sustained Meeting verdicts close it.
//  4. Flow re-steering: flows homed on an open shard migrate to a
//     healthy sibling through a bounded remap table. Each migration
//     (and each return migration when the breaker closes, or when it is
//     half-open and no unremapped flow reaches it to probe) runs a drain
//     barrier — the flow's new shard serves nothing until every
//     envelope the flow could ride on its old shard has completed — so
//     per-flow order holds end to end across the move.
//
// The controller is single-producer, like the fleet under it: drive
// TrySubmit/SubmitDeadline/Tick/Drain from the one goroutine that owns
// submission. Everything it reads cross-goroutine (queue depths,
// respawn counts, health samples) is one of the fleet's atomic or
// mutex-published accessors.
package overload

import (
	"time"

	"knit/internal/knit/fleet"
	"knit/internal/knit/observe"
)

// Class is a traffic priority class. Lower values are more important.
type Class int

const (
	// High traffic is shed only when a queue is hard-full past its
	// deadline budget.
	High Class = iota
	// Normal traffic is shed above HighWater pressure — after brownout
	// has already degraded the work being done.
	Normal
	// Low traffic is shed first, above LowWater pressure.
	Low

	NumClasses
)

var classNames = [NumClasses]string{High: "high", Normal: "normal", Low: "low"}

func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return "class?"
}

// The pressure thresholds of admission and brownout.
const (
	// LowWater is the target-shard pressure (fleet.Pressure, queue
	// occupancy in [0,1]) above which Low traffic is shed.
	LowWater = 0.5
	// HighWater is the pressure above which Normal traffic is shed. It
	// stays above BrownoutAt: brownout must engage before Normal traffic
	// is refused.
	HighWater = 0.9
	// BrownoutAt is the mean fleet pressure that engages brownout;
	// BrownoutClearAt is where it disengages. The gap is hysteresis
	// against flapping.
	BrownoutAt      = 0.75
	BrownoutClearAt = 0.4
)

// Config shapes the controller. Zero fields take the documented
// defaults; the zero value is a usable configuration.
type Config struct {
	// SLO parameterizes the per-shard circuit breakers: each shard's
	// sliding window is judged against the sum of its closed siblings'
	// windows. PromoteAfter doubles as the half-open close threshold.
	SLO observe.SLO
	// TripAfter is how many consecutive Breaching judgments open a
	// closed shard's breaker (default 2). A respawn trips immediately.
	TripAfter int
	// CoolTicks is how many Ticks an open breaker waits before going
	// half-open (default 4).
	CoolTicks int
	// MaxRemaps bounds the re-steering table: at most this many flows
	// are remapped away from open shards at once (default 16). Flows
	// beyond the bound stay on their sick home shard and take their
	// chances with admission.
	MaxRemaps int
	// ParkCap bounds how many items a migrating flow may hold parked
	// while its drain barrier completes (default 128); overflow is shed.
	ParkCap int
}

func (c Config) withDefaults() Config {
	c.SLO = c.SLO.WithDefaults()
	if c.TripAfter <= 0 {
		c.TripAfter = 2
	}
	if c.CoolTicks <= 0 {
		c.CoolTicks = 4
	}
	if c.MaxRemaps <= 0 {
		c.MaxRemaps = 16
	}
	if c.ParkCap <= 0 {
		c.ParkCap = 128
	}
	return c
}

// Stats is the controller's conservation ledger. At every instant
// Submitted == Admitted + ShedTotal + parked-in-limbo; after Drain the
// limbo is empty, so combined with the fleet's own accounting every
// submitted item is exactly one of served, dropped, or shed.
type Stats struct {
	Submitted uint64
	Admitted  uint64
	// Shed counts refusals by class; ShedTotal is their sum.
	Shed      [NumClasses]uint64
	ShedTotal uint64

	Trips   int // breakers opened
	Reopens int // half-open probes that failed back to open
	Closes  int // breakers closed from half-open
	// Resteers counts migrations started; Returns counts flows moved
	// back home after their shard's breaker closed, or to probe it
	// half-open when no other flow reached it.
	Resteers int
	Returns  int

	BrownoutEngaged int
	BrownoutCleared int
}

// Controller is the overload-resilience layer over one fleet.
type Controller[T any] struct {
	fl     *fleet.Fleet[T]
	cfg    Config
	shards int
	brk    []*breaker
	remap  map[uint64]*entry[T]
	stats  Stats

	brownout bool
	// browned/brownedAt track which shards have the brownout swap
	// applied and at which respawn generation (a respawn reboots from
	// the pre-brownout snapshot, so the swap must be reapplied).
	browned   []bool
	brownedAt []int
}

// parkedItem is one item held back while its flow's drain barrier
// completes; the class rides along for the shed ledger.
type parkedItem[T any] struct {
	item  T
	class Class
}

// entry is one remapped flow.
type entry[T any] struct {
	flow     uint64
	from, to int
	phase    phase
	// barrier is the envelope count on the shard being drained (from
	// when leaving, to when returning), captured once that shard's
	// partial batch is handed off.
	barrier    uint64
	barrierSet bool
	parked     []parkedItem[T]
}

type phase int

const (
	// phaseAway: draining the home shard; items park until every
	// envelope enqueued there has completed and the park has flushed to
	// the sibling.
	phaseAway phase = iota
	// phaseSteered: serving on the sibling.
	phaseSteered
	// phaseHome: breaker closed; draining the sibling before the flow
	// returns home. The entry is deleted when the park flushes.
	phaseHome
)

// NewController wraps fl. The fleet stays usable directly, but items
// the controller should account for must go through it.
func NewController[T any](fl *fleet.Fleet[T], cfg Config) *Controller[T] {
	cfg = cfg.withDefaults()
	n := len(fl.Shards())
	c := &Controller[T]{
		fl:        fl,
		cfg:       cfg,
		shards:    n,
		remap:     map[uint64]*entry[T]{},
		browned:   make([]bool, n),
		brownedAt: make([]int, n),
	}
	for i := 0; i < n; i++ {
		c.brk = append(c.brk, &breaker{win: observe.NewWindow(cfg.SLO.Windows)})
	}
	return c
}

// TrySubmit routes one item by flow key through admission control: it
// never blocks, and returns whether the item was admitted (parked items
// count as admitted once their barrier flush lands them on a shard;
// until then they are in limbo, visible via Parked). A false return
// means the item was shed and counted.
func (c *Controller[T]) TrySubmit(flow uint64, class Class, item T) bool {
	return c.submit(flow, class, item, time.Time{})
}

// SubmitDeadline is TrySubmit with a time budget: when the target shard
// cannot take the item immediately, the producer waits for a queue slot
// until the deadline before shedding. Reserve it for High traffic — the
// wait blocks the producer.
func (c *Controller[T]) SubmitDeadline(flow uint64, class Class, item T, deadline time.Time) bool {
	return c.submit(flow, class, item, deadline)
}

func (c *Controller[T]) submit(flow uint64, class Class, item T, deadline time.Time) bool {
	c.stats.Submitted++
	home := int(fleet.FlowShard(flow, c.shards))
	e := c.remap[flow]
	if e != nil {
		c.progress(e)
		if _, still := c.remap[flow]; !still {
			e = nil // returned home while we looked
		}
	}
	if e == nil && c.brk[home].state == Open {
		e = c.resteer(flow, home)
	}
	target := home
	if e != nil {
		if e.phase != phaseSteered {
			return c.park(e, class, item)
		}
		target = e.to
	}
	return c.admit(target, class, item, deadline)
}

// admit applies class gating against the target shard's pressure, then
// hands the item to the fleet without blocking (or within the deadline
// budget). Refusals are shed and counted.
func (c *Controller[T]) admit(target int, class Class, item T, deadline time.Time) bool {
	p := c.fl.Pressure(target)
	if (class == Low && p >= LowWater) || (class == Normal && p >= HighWater) {
		c.shed(class)
		return false
	}
	if !c.fl.SubmitTo(target, item, deadline) {
		c.shed(class)
		return false
	}
	c.stats.Admitted++
	return true
}

func (c *Controller[T]) shed(class Class) {
	c.stats.Shed[class]++
	c.stats.ShedTotal++
}

// park holds an item while its flow's drain barrier completes. The park
// is bounded; overflow is shed — order-safe, since a shed item simply
// never serves.
func (c *Controller[T]) park(e *entry[T], class Class, item T) bool {
	if len(e.parked) >= c.cfg.ParkCap {
		c.shed(class)
		return false
	}
	e.parked = append(e.parked, parkedItem[T]{item: item, class: class})
	return true
}

// resteer starts migrating a flow off its open home shard, if the remap
// table has room and a closed sibling exists. The barrier is captured
// as soon as the home shard's partial batch can be handed off.
func (c *Controller[T]) resteer(flow uint64, home int) *entry[T] {
	if len(c.remap) >= c.cfg.MaxRemaps {
		return nil
	}
	to := -1
	for k := 1; k < c.shards; k++ {
		cand := (home + k) % c.shards
		if c.brk[cand].state == Closed {
			to = cand
			break
		}
	}
	if to < 0 {
		return nil
	}
	e := &entry[T]{flow: flow, from: home, to: to, phase: phaseAway}
	c.remap[flow] = e
	c.stats.Resteers++
	c.captureBarrier(e, home)
	c.progress(e)
	return e
}

// captureBarrier pins the drain point on shard id: once the shard's
// partial batch is handed off, every envelope the flow could ride is in
// the first Enqueued(id) envelopes, and the barrier is that count.
func (c *Controller[T]) captureBarrier(e *entry[T], id int) {
	if c.fl.Flush(id, time.Time{}) {
		e.barrier = c.fl.Enqueued(id)
		e.barrierSet = true
	}
}

// progress advances one entry's migration state machine as far as the
// fleet allows right now. Called on every touch of the entry and every
// Tick; all steps are non-blocking and idempotent.
func (c *Controller[T]) progress(e *entry[T]) {
	switch e.phase {
	case phaseAway:
		if !e.barrierSet {
			c.captureBarrier(e, e.from)
		}
		if e.barrierSet && c.fl.Shards()[e.from].Completed() >= e.barrier {
			if c.flushParked(e, e.to) {
				e.phase = phaseSteered
			}
		}
	case phaseHome:
		if !e.barrierSet {
			c.captureBarrier(e, e.to)
		}
		if e.barrierSet && c.fl.Shards()[e.to].Completed() >= e.barrier {
			if c.flushParked(e, e.from) {
				delete(c.remap, e.flow)
				c.stats.Returns++
			}
		}
	}
}

// flushParked releases the park to shard id in order; true when the
// park is empty afterwards. A refused hand-off keeps the remainder
// parked (order over progress); a class-gated shed drops the item and
// moves on (a shed item never serves, so order is intact).
func (c *Controller[T]) flushParked(e *entry[T], id int) bool {
	i := 0
	for ; i < len(e.parked); i++ {
		pi := e.parked[i]
		p := c.fl.Pressure(id)
		if (pi.class == Low && p >= LowWater) || (pi.class == Normal && p >= HighWater) {
			c.shed(pi.class)
			continue
		}
		if !c.fl.SubmitTo(id, pi.item, time.Time{}) {
			break
		}
		c.stats.Admitted++
	}
	e.parked = e.parked[:copy(e.parked, e.parked[i:])]
	return len(e.parked) == 0
}

// Tick advances the control plane one step: breaker windows and
// judgments, migration progress and return triggers, and the brownout
// state machine. Call it at a steady cadence from the producer
// goroutine, interleaved with submissions — every SLO quantity is
// windowed per tick, so the cadence is the breakers' time base.
func (c *Controller[T]) Tick() {
	shs := c.fl.Shards()
	for i, b := range c.brk {
		b.cur = b.win.Advance(shs[i].HealthSample())
	}
	for i, b := range c.brk {
		now := shs[i].Respawns()
		respawned := now > b.lastRespawns
		b.lastRespawns = now
		var base observe.Sample
		for j, ob := range c.brk {
			if j != i && ob.state == Closed {
				base.Add(ob.cur)
			}
		}
		c.judge(b, respawned, base)
	}
	for _, e := range c.remap {
		c.progress(e)
		if e.phase != phaseSteered {
			continue
		}
		// Home is healthy again, or half-open with no probe traffic
		// because every flow it carried is steered away: drain the
		// sibling and move back, the returning flows being the probe.
		home := c.brk[e.from]
		if home.state == Closed || (home.state == HalfOpen && home.cur.Calls == 0) {
			e.phase = phaseHome
			e.barrierSet = false
			c.captureBarrier(e, e.to)
			c.progress(e)
		}
	}
	c.tickBrownout(shs)
}

// tickBrownout runs the fleet-wide pressure thermostat. The swaps ride
// the shards' own queues via TryExec — a congested shard picks its swap
// up as soon as a slot frees, and a respawned shard (rebooted from the
// pre-brownout snapshot) gets the swap reapplied while brownout holds.
func (c *Controller[T]) tickBrownout(shs []*fleet.Shard[T]) {
	var mean float64
	for i := range shs {
		mean += c.fl.Pressure(i)
	}
	mean /= float64(c.shards)
	if !c.brownout && mean >= BrownoutAt {
		c.brownout = true
		c.stats.BrownoutEngaged++
	} else if c.brownout && mean <= BrownoutClearAt {
		c.brownout = false
		c.stats.BrownoutCleared++
	}
	for i := range shs {
		switch {
		case c.brownout && (!c.browned[i] || c.brownedAt[i] != shs[i].Respawns()):
			ok := c.fl.TryExec(i, func(sh *fleet.Shard[T]) error {
				_, err := sh.Sup.DegradeAll()
				return err
			})
			if ok {
				c.browned[i] = true
				c.brownedAt[i] = shs[i].Respawns()
			}
		case !c.brownout && c.browned[i]:
			ok := c.fl.TryExec(i, func(sh *fleet.Shard[T]) error {
				_, err := sh.Sup.RestoreAll()
				return err
			})
			if ok {
				c.browned[i] = false
			}
		}
	}
}

// Drain settles the re-steering table before shutdown: it keeps
// advancing barriers until every park has flushed (items become
// admitted) or the deadline passes (leftovers are shed and counted).
// Call it before Fleet.Close so the conservation ledger closes exactly.
func (c *Controller[T]) Drain(deadline time.Time) {
	for {
		limbo := 0
		for _, e := range c.remap {
			c.progress(e)
			limbo += len(e.parked)
		}
		if limbo == 0 {
			return
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	for _, e := range c.remap {
		for _, pi := range e.parked {
			c.shed(pi.class)
		}
		e.parked = nil
	}
}

// Stats returns the conservation ledger so far.
func (c *Controller[T]) Stats() Stats { return c.stats }

// Parked counts items currently in limbo behind drain barriers.
func (c *Controller[T]) Parked() int {
	n := 0
	for _, e := range c.remap {
		n += len(e.parked)
	}
	return n
}

// Remapped reports how many flows are currently steered away from home.
func (c *Controller[T]) Remapped() int { return len(c.remap) }

// BrownedOut reports whether the pressure thermostat currently holds
// the fleet degraded.
func (c *Controller[T]) BrownedOut() bool { return c.brownout }

// BreakerState returns shard id's breaker state.
func (c *Controller[T]) BreakerState(id int) BreakerState { return c.brk[id].state }
