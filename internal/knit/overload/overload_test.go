package overload

import (
	"sync/atomic"
	"testing"
	"time"

	"knit/internal/knit/fleet"
	"knit/internal/knit/observe"
	"knit/internal/machine"
)

// observeSLO is a fast-converging SLO for tests: one call of evidence
// suffices and one healthy verdict promotes.
func observeSLO() observe.SLO {
	return observe.SLO{MinCalls: 1, PromoteAfter: 1, Windows: 2}
}

func workHandler(poison int64) fleet.Handler[int64] {
	return func(sh *fleet.Shard[int64], batch []int64) error {
		for i, x := range batch {
			if x == poison {
				return errPoisoned
			}
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
			sh.Ack(i + 1)
		}
		return nil
	}
}

var errPoisoned = errString("machine wedged beyond recovery")

type errString string

func (e errString) Error() string { return string(e) }

// TestAdmissionShedsByClass drives a single parked shard to increasing
// pressure and checks the class ladder: Low shed first, Normal next,
// High only when the queue is hard-full past its deadline budget — and
// the producer never blocks outside the deadline budget.
func TestAdmissionShedsByClass(t *testing.T) {
	res := buildOverload(t, machine.BackendInterp)
	gate := make(chan struct{})
	var gated atomic.Bool
	gated.Store(true)
	handler := func(sh *fleet.Shard[int64], batch []int64) error {
		if gated.Load() {
			<-gate
		}
		for _, x := range batch {
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	fl, err := fleet.New[int64](res, fleet.Config{Shards: 1, Batch: 1, Queue: 4}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := NewController(fl, Config{})

	// One item parks inside the handler; wait for the queue to empty.
	if !c.TrySubmit(0, High, 1) {
		t.Fatal("first submit must be admitted")
	}
	deadline := time.Now().Add(2 * time.Second)
	for fl.QueueDepth(0) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Fill: depth 0 -> 1 -> 2 (pressure 0, .25 at admission time).
	if !c.TrySubmit(0, High, 1) || !c.TrySubmit(0, High, 1) {
		t.Fatal("High must be admitted while pressure is low")
	}
	// Pressure now 0.5: Low sheds, High still admitted (depth 3).
	if c.TrySubmit(0, Low, 1) {
		t.Fatal("Low must shed at pressure 0.5")
	}
	if !c.TrySubmit(0, High, 1) {
		t.Fatal("High must be admitted at pressure 0.5")
	}
	// Pressure 0.75: Normal still admitted (fills the queue, depth 4).
	if !c.TrySubmit(0, Normal, 1) {
		t.Fatal("Normal must be admitted at pressure 0.75")
	}
	// Pressure 1.0: Normal sheds on the water mark, High on the full
	// queue — immediately via TrySubmit, after the budget via deadline.
	if c.TrySubmit(0, Normal, 1) {
		t.Fatal("Normal must shed at pressure 1.0")
	}
	if c.TrySubmit(0, High, 1) {
		t.Fatal("High must shed when the queue is hard-full")
	}
	if c.SubmitDeadline(0, High, 1, time.Now().Add(5*time.Millisecond)) {
		t.Fatal("High deadline submit must expire against a parked shard")
	}

	gated.Store(false)
	close(gate)
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st := c.Stats()
	if st.Submitted != 9 || st.Admitted != 5 || st.ShedTotal != 4 {
		t.Fatalf("submitted/admitted/shed = %d/%d/%d, want 9/5/4", st.Submitted, st.Admitted, st.ShedTotal)
	}
	if st.Shed[Low] != 1 || st.Shed[Normal] != 1 || st.Shed[High] != 2 {
		t.Fatalf("shed by class = %v, want [high:2 normal:1 low:1]", st.Shed)
	}
	if got := fl.Shards()[0].Served(); got != st.Admitted {
		t.Fatalf("served %d != admitted %d (conservation)", got, st.Admitted)
	}
}

// TestBreakerTripResteerAndReturn walks the full breaker lifecycle on a
// two-shard fleet: a respawn trips the victim open, a flow homed there
// re-steers to the sibling through the drain barrier, probe traffic
// closes the breaker half-open -> closed, and the flow returns home —
// with conservation holding throughout.
func TestBreakerTripResteerAndReturn(t *testing.T) {
	res := buildOverload(t, machine.BackendInterp)
	const poison = int64(-1)
	fl, err := fleet.New[int64](res, fleet.Config{Shards: 2, Batch: 1, Queue: 8}, workHandler(poison))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := NewController(fl, Config{
		SLO:       observeSLO(),
		TripAfter: 1,
		CoolTicks: 1,
	})
	victim := 0
	flowV := flowFor(t, victim, 2)
	flowProbe := flowV + 2 // same low bits -> same home shard
	if fleet.FlowShard(flowProbe, 2) != victim {
		flowProbe = flowFor(t, victim, 2) // fall back to scanning
	}

	// Healthy traffic, then the kill.
	if !c.TrySubmit(flowV, High, 5) {
		t.Fatal("healthy submit refused")
	}
	if !c.TrySubmit(flowV, High, poison) {
		t.Fatal("poison submit refused")
	}
	waitFor(t, func() bool { return fl.Shards()[victim].Respawns() == 1 })
	c.Tick()
	if c.BreakerState(victim) != Open {
		t.Fatalf("breaker = %v after respawn tick, want open", c.BreakerState(victim))
	}

	// A submission for the victim's flow now re-steers: the entry drains
	// the home shard, then serves on the sibling.
	if !c.TrySubmit(flowV, High, 7) {
		t.Fatal("re-steered submit refused")
	}
	if c.Remapped() != 1 {
		t.Fatalf("remapped = %d, want 1", c.Remapped())
	}
	waitFor(t, func() bool { c.Tick(); return c.Parked() == 0 })
	waitFor(t, func() bool { return fl.Shards()[1].Served() >= 1 })

	// Recovery: cooldown to half-open, probe traffic on an unremapped
	// flow produces Meeting verdicts, breaker closes, flow returns home.
	c.Tick() // open -> half-open (CoolTicks=1)
	if c.BreakerState(victim) != HalfOpen {
		t.Fatalf("breaker = %v, want half-open", c.BreakerState(victim))
	}
	waitFor(t, func() bool {
		c.TrySubmit(flowProbe, High, 1)
		time.Sleep(time.Millisecond)
		c.Tick()
		return c.BreakerState(victim) == Closed
	})
	waitFor(t, func() bool { c.Tick(); return c.Remapped() == 0 })

	st := c.Stats()
	if st.Trips < 1 || st.Resteers != 1 || st.Closes < 1 || st.Returns != 1 {
		t.Fatalf("trips/resteers/closes/returns = %d/%d/%d/%d, want >=1/1/>=1/1",
			st.Trips, st.Resteers, st.Closes, st.Returns)
	}

	// After the return, the flow serves on its home shard again.
	homeServed := fl.Shards()[victim].Served()
	if !c.TrySubmit(flowV, High, 3) {
		t.Fatal("post-return submit refused")
	}
	waitFor(t, func() bool { return fl.Shards()[victim].Served() > homeServed })

	c.Drain(time.Now().Add(2 * time.Second))
	if err := fl.Close(); err == nil {
		t.Fatal("Close: want the poisoned batch's error, got nil")
	}
	st = c.Stats()
	var served, dropped uint64
	for _, sh := range fl.Shards() {
		served += sh.Served()
		dropped += sh.Dropped()
	}
	if st.Submitted != st.Admitted+st.ShedTotal {
		t.Fatalf("submitted %d != admitted %d + shed %d", st.Submitted, st.Admitted, st.ShedTotal)
	}
	if served+dropped != st.Admitted {
		t.Fatalf("served %d + dropped %d != admitted %d", served, dropped, st.Admitted)
	}
}

// TestHalfOpenBreakerProbesWithSteeredFlows: when re-steering took
// every flow a shard carried, no probe traffic reaches it half-open, so
// the steered flows come home through the drain barrier as the probe;
// the breaker closes and the victim serves again.
func TestHalfOpenBreakerProbesWithSteeredFlows(t *testing.T) {
	res := buildOverload(t, machine.BackendInterp)
	const poison = int64(-1)
	fl, err := fleet.New[int64](res, fleet.Config{Shards: 2, Batch: 1, Queue: 8}, workHandler(poison))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := NewController(fl, Config{SLO: observeSLO(), TripAfter: 1, CoolTicks: 1})
	victim := 0
	flow := flowFor(t, victim, 2) // the victim's only flow
	shs := fl.Shards()
	settled := func() bool {
		c.Tick()
		var done uint64
		for _, sh := range shs {
			done += sh.Served() + sh.Dropped()
		}
		return c.Parked() == 0 && done == c.Stats().Admitted
	}

	if !c.TrySubmit(flow, High, poison) {
		t.Fatal("poison submit refused")
	}
	waitFor(t, func() bool { return shs[victim].Completed() == 1 })
	c.Tick()
	if c.BreakerState(victim) != Open {
		t.Fatalf("breaker = %v after respawn tick, want open", c.BreakerState(victim))
	}
	for round := 0; round < 400; round++ {
		if c.BreakerState(victim) == Closed && c.Remapped() == 0 {
			break
		}
		if !c.TrySubmit(flow, High, 1) {
			t.Fatalf("round %d: submit refused", round)
		}
		waitFor(t, settled)
	}
	if c.BreakerState(victim) != Closed || c.Remapped() != 0 {
		t.Fatalf("breaker = %v with %d flows remapped; victim served %d, sibling %d",
			c.BreakerState(victim), c.Remapped(), shs[victim].Served(), shs[1].Served())
	}
	st := c.Stats()
	if st.Trips != 1 || st.Resteers != 1 || st.Returns != 1 || st.Closes != 1 {
		t.Fatalf("trips/resteers/returns/closes = %d/%d/%d/%d, want 1/1/1/1",
			st.Trips, st.Resteers, st.Returns, st.Closes)
	}

	// Home again: the flow serves on the victim.
	before := shs[victim].Served()
	if !c.TrySubmit(flow, High, 3) {
		t.Fatal("post-return submit refused")
	}
	waitFor(t, settled)
	if shs[victim].Served() != before+1 {
		t.Fatalf("victim served %d, want %d", shs[victim].Served(), before+1)
	}
	c.Drain(time.Now().Add(2 * time.Second))
	if err := fl.Close(); err == nil {
		t.Fatal("Close: want the poisoned batch's error, got nil")
	}
}

// TestBrownoutDegradesFleetAndRestores: sustained pressure flips the
// fleet to its fallback wiring (Lite's counter seed is unmistakable);
// pressure release restores the primary.
func TestBrownoutDegradesFleetAndRestores(t *testing.T) {
	res := buildOverload(t, machine.BackendInterp)
	gate := make(chan struct{})
	var gated atomic.Bool
	gated.Store(true)
	handler := func(sh *fleet.Shard[int64], batch []int64) error {
		if gated.Load() {
			<-gate
		}
		for _, x := range batch {
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	fl, err := fleet.New[int64](res, fleet.Config{Shards: 1, Batch: 1, Queue: 8}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := NewController(fl, Config{})

	// Park the shard and fill to 6/8 queue slots: pressure 0.75.
	if !c.TrySubmit(0, High, 1) {
		t.Fatal("first submit refused")
	}
	deadline := time.Now().Add(2 * time.Second)
	for fl.QueueDepth(0) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		if !c.TrySubmit(0, High, 1) {
			t.Fatalf("fill submit %d refused", i)
		}
	}
	c.Tick()
	if !c.BrownedOut() {
		t.Fatal("brownout must engage at pressure 0.75")
	}
	// The degrade rides the shard's queue behind the fill; release the
	// gate and let it land.
	gated.Store(false)
	close(gate)
	waitFor(t, func() bool { return fl.QueueDepth(0) == 0 && fl.Shards()[0].Completed() >= 7 })

	var total int64
	err = fl.Exec(0, func(sh *fleet.Shard[int64]) error {
		v, err := sh.Sup.Call("main", "total")
		total = v
		return err
	})
	if err != nil {
		t.Fatalf("Exec total: %v", err)
	}
	if total < 500000 {
		t.Fatalf("browned-out total = %d, want >= 500000 (Lite serving)", total)
	}

	// Pressure is back to zero: the next tick clears the brownout and
	// restores the primary (with its pre-brownout state intact).
	c.Tick()
	if c.BrownedOut() {
		t.Fatal("brownout must clear at zero pressure")
	}
	err = fl.Exec(0, func(sh *fleet.Shard[int64]) error {
		v, err := sh.Sup.Call("main", "total")
		total = v
		return err
	})
	if err != nil {
		t.Fatalf("Exec total after restore: %v", err)
	}
	if total >= 500000 || total < 1000 {
		t.Fatalf("restored total = %d, want the primary's counter (>= 1000, < 500000)", total)
	}
	if st := c.Stats(); st.BrownoutEngaged != 1 || st.BrownoutCleared != 1 {
		t.Fatalf("brownout engaged/cleared = %d/%d, want 1/1", st.BrownoutEngaged, st.BrownoutCleared)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
