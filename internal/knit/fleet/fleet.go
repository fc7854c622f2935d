package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"knit/internal/knit/build"
	"knit/internal/knit/observe"
	"knit/internal/knit/supervise"
	"knit/internal/machine"
)

// Prototype is the shard ID passed to Config.Setup for the throwaway
// machine that produces the fleet's post-init snapshot. Setup must
// install the same builtin surface it installs for real shards (the
// init schedule may call devices), but any host-side state it creates
// for the prototype is discarded with it.
const Prototype = -1

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("fleet: submit after Close")

// Config shapes a fleet. The zero value of every optional field has a
// usable default; only Shards is mandatory.
type Config struct {
	// Shards is the number of machines to run. Must be >= 1.
	Shards int
	// Batch is how many submitted items accumulate per shard before a
	// hand-off (default 64). Batching amortizes the channel operation;
	// per-flow ordering is unaffected because a flow's items stay in
	// submission order within its shard's batches.
	Batch int
	// Queue is the per-shard queue depth in batches (default 8). A full
	// queue blocks Submit — backpressure, not drops. Producers that must
	// not stall on one sick shard use SubmitTo with a deadline instead
	// and shed on refusal (the overload layer's admission path).
	Queue int
	// RedeliverAttempts is the in-flight batch redelivery policy applied
	// when a handler failure kills a shard's machine: 0 (at-most-once,
	// the default) drops the batch's unacked remainder with the dead
	// machine; N > 0 replays the remainder onto the respawned machine up
	// to N times before dropping it. Handlers report progress with
	// Shard.Ack so a replay never re-serves completed items.
	RedeliverAttempts int
	// Policy is the restart policy template; each shard gets its own
	// decorrelated copy via Policy.ForShard. Default supervise.Default().
	Policy *supervise.Policy
	// Clock supplies each shard's supervisor clock (default wall clock).
	// Tests inject fakes; shard IDs let them be distinct per shard.
	Clock func(shard int) supervise.Clock
	// Setup installs host-side builtins (devices, console, stopwatch) on
	// a fresh machine. It runs once for the Prototype and once per shard
	// boot, including respawns. Builtins are per-machine by the snapshot
	// contract — snapshots exclude them — so Setup is where each shard
	// gets its own device state.
	Setup func(shard int, m *machine.M) error
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards < 1 {
		return c, fmt.Errorf("fleet: config needs Shards >= 1, got %d", c.Shards)
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Queue <= 0 {
		c.Queue = 8
	}
	if c.RedeliverAttempts < 0 {
		return c, fmt.Errorf("fleet: RedeliverAttempts must be >= 0, got %d", c.RedeliverAttempts)
	}
	if c.Policy == nil {
		c.Policy = supervise.Default()
	}
	if c.Clock == nil {
		c.Clock = func(int) supervise.Clock { return supervise.Wall() }
	}
	return c, nil
}

// Handler drains one batch on one shard. It runs on the shard's
// goroutine, so it may use the shard's machine, supervisor, and
// collector freely — they are never shared across goroutines. A nil
// return means the batch was served (possibly degraded: the supervisor
// may have restarted or swapped components along the way). A non-nil
// return means the shard's machine is beyond the supervisor's recovery
// — the fleet retires its ledger and respawns it from the shared
// snapshot. What happens to the batch is the redelivery policy's call:
// with Config.RedeliverAttempts > 0 its unacked remainder is journaled
// and replayed onto the respawned machine; otherwise the remainder is
// dropped (counted in Dropped). Handlers that serve item by item should
// call Shard.Ack after each completed item so a replay resumes where
// the dead machine stopped instead of re-serving the whole batch.
type Handler[T any] func(sh *Shard[T], batch []T) error

// Fleet is N shards of one build.Result behind a flow-hash balancer.
// Submit, SubmitTo, Flush, Exec, TryExec, and Close are single-producer:
// one goroutine feeds the fleet. Submit blocks on a full queue; SubmitTo
// and Flush wait at most until a deadline; every hand-off goes through
// one internal send. Report, Statuses, and the per-shard accessors are
// valid after Close returns; the atomic health accessors (Served,
// Dropped, Respawns, Completed, HealthSample, QueueDepth) may
// additionally be read live from the producer goroutine — that is what
// the overload layer's circuit breakers do.
type Fleet[T any] struct {
	res    *build.Result
	cfg    Config
	snap   *machine.Snapshot
	handle Handler[T]
	shards []*Shard[T]
	// pending accumulates submissions per shard until a batch fills.
	pending [][]T
	// enq counts envelopes (batches and control functions) handed to
	// each shard's queue. Producer-owned; paired with Shard.Completed it
	// gives the drain barrier the re-steering layer needs.
	enq      []uint64
	closed   bool
	closeErr error
}

// Shard is one machine's worth of the fleet. M, Sup, and Col are owned
// by the shard goroutine while the fleet runs; read them after Close.
// The atomic counters (Served, Dropped, Respawns, Redelivered,
// Completed) and HealthSample are safe to read at any time.
type Shard[T any] struct {
	ID  int
	M   *machine.M
	Sup *supervise.Supervisor
	Col *observe.Collector

	fl       *Fleet[T]
	in       chan envelope[T]
	done     chan struct{}
	served   atomic.Uint64
	dropped  atomic.Uint64
	redeliv  atomic.Uint64
	respawns atomic.Int64
	// completed counts envelopes fully processed, the shard-side half of
	// the drain barrier.
	completed atomic.Uint64
	// acked is the in-flight batch journal's progress mark: how many
	// items of the batch currently being handled are complete. Owned by
	// the shard goroutine (set via Ack from the handler).
	acked int
	errs  []error
	// healthMu guards health, the shard's last published activity
	// snapshot (collector totals), refreshed after every envelope.
	healthMu sync.Mutex
	health   observe.Sample
	// retired holds the observability ledgers of this shard's dead
	// predecessors, so a respawn loses no history from the roll-up.
	retired []*observe.Report
}

// envelope is one queue entry: a data batch for the handler, or a
// control function to run on the shard goroutine (Exec/TryExec).
// Exactly one of batch/ctrl is set; a nil reply sends ctrl's error to
// the shard's error log instead of a caller.
type envelope[T any] struct {
	batch []T
	ctrl  func(*Shard[T]) error
	reply chan<- error
}

// New builds a fleet: it takes the post-init snapshot on a prototype
// machine (running the init schedule exactly once for the whole fleet),
// then boots cfg.Shards shards from it, each with its own supervisor
// and collector, and starts their goroutines.
func New[T any](res *build.Result, cfg Config, handle Handler[T]) (*Fleet[T], error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if handle == nil {
		return nil, errors.New("fleet: nil handler")
	}
	var protoSetup func(*machine.M) error
	if cfg.Setup != nil {
		protoSetup = func(m *machine.M) error { return cfg.Setup(Prototype, m) }
	}
	snap, err := res.PostInitSnapshot(protoSetup)
	if err != nil {
		return nil, fmt.Errorf("fleet: post-init snapshot: %w", err)
	}
	fl := &Fleet[T]{
		res:     res,
		cfg:     cfg,
		snap:    snap,
		handle:  handle,
		pending: make([][]T, cfg.Shards),
		enq:     make([]uint64, cfg.Shards),
	}
	for id := 0; id < cfg.Shards; id++ {
		sh := &Shard[T]{
			ID:   id,
			fl:   fl,
			in:   make(chan envelope[T], cfg.Queue),
			done: make(chan struct{}),
		}
		if err := sh.boot(); err != nil {
			return nil, fmt.Errorf("fleet: boot shard %d: %w", id, err)
		}
		fl.shards = append(fl.shards, sh)
		fl.pending[id] = make([]T, 0, cfg.Batch)
	}
	for _, sh := range fl.shards {
		go sh.run()
	}
	return fl, nil
}

// boot (re)creates the shard's machine trio from the fleet's shared
// snapshot: data restored by one memory copy, text and symbols shared
// through the image, initializers already run, fresh builtins from
// Setup, fresh collector, fresh supervisor with the shard's
// decorrelated policy.
func (sh *Shard[T]) boot() error {
	fl := sh.fl
	m := fl.res.NewMachineFrom(fl.snap, true)
	if fl.cfg.Setup != nil {
		if err := fl.cfg.Setup(sh.ID, m); err != nil {
			return err
		}
	}
	col := observe.Attach(m)
	fl.res.SetObserver(m, col)
	sup := supervise.New(fl.res, m, fl.cfg.Policy.ForShard(sh.ID), fl.cfg.Clock(sh.ID))
	sup.Observe(col)
	sh.M, sh.Sup, sh.Col = m, sup, col
	return nil
}

// run is the shard goroutine: drain batches until the queue closes,
// respawning from the shared snapshot when the handler reports the
// machine unrecoverable and applying the redelivery policy to the
// in-flight batch.
func (sh *Shard[T]) run() {
	defer close(sh.done)
	for env := range sh.in {
		if env.ctrl != nil {
			// Control work runs in-order with the shard's traffic but
			// outside the handler contract: its error goes to the caller
			// (or, fire-and-forget via TryExec, to the shard's error log)
			// — the controller decides what a failed step means
			// (typically: roll back).
			err := env.ctrl(sh)
			if env.reply != nil {
				env.reply <- err
			} else if err != nil {
				sh.errs = append(sh.errs, fmt.Errorf("shard %d: ctrl: %w", sh.ID, err))
			}
		} else {
			sh.serveBatch(env.batch)
		}
		sh.completed.Add(1)
		sh.publishHealth()
	}
}

// serveBatch runs one batch through the handler under the redelivery
// policy. The batch itself is the in-flight journal: until the handler
// returns nil, its unacked remainder survives the machine and — with
// RedeliverAttempts > 0 — replays onto the respawn, ahead of everything
// still queued (which is what preserves per-flow order: later items of
// the same flow are behind this batch in the shard's FIFO).
func (sh *Shard[T]) serveBatch(batch []T) {
	for attempt := 0; ; attempt++ {
		sh.acked = 0
		err := sh.fl.handle(sh, batch)
		if err == nil {
			sh.served.Add(uint64(len(batch)))
			return
		}
		sh.errs = append(sh.errs, fmt.Errorf("shard %d (respawn %d): %w",
			sh.ID, sh.respawns.Load(), err))
		// Items acked before the death were fully served; only the
		// remainder is at stake.
		if sh.acked > len(batch) {
			sh.acked = len(batch)
		}
		sh.served.Add(uint64(sh.acked))
		batch = batch[sh.acked:]
		sh.respawn()
		if len(batch) == 0 {
			return
		}
		if attempt >= sh.fl.cfg.RedeliverAttempts {
			sh.dropped.Add(uint64(len(batch)))
			return
		}
		sh.redeliv.Add(uint64(len(batch)))
	}
}

// Ack marks the first n items of the batch currently being handled as
// served. Call it from the handler, on the shard's goroutine, after
// each completed item (or group): if the machine dies later in the
// batch, redelivery resumes at the ack mark instead of re-serving from
// the top.
func (sh *Shard[T]) Ack(n int) {
	if n > sh.acked {
		sh.acked = n
	}
}

// publishHealth refreshes the shard's cross-goroutine activity
// snapshot from the live collector.
func (sh *Shard[T]) publishHealth() {
	if sh.Col == nil {
		return
	}
	s := sh.Col.Totals()
	sh.healthMu.Lock()
	sh.health = s
	sh.healthMu.Unlock()
}

// HealthSample returns the shard's last published activity snapshot
// (cumulative collector totals as of the most recently completed
// envelope). Safe from any goroutine; the overload layer's circuit
// breakers feed it into sliding observe.Windows. A respawn resets the
// counters — Window.Advance clamps the backwards delta.
func (sh *Shard[T]) HealthSample() observe.Sample {
	sh.healthMu.Lock()
	defer sh.healthMu.Unlock()
	return sh.health
}

// respawn retires the dead machine's ledger and boots a replacement.
// Siblings are untouched: everything respawn reads — the snapshot, the
// image — is immutable and shared; everything it writes is this
// shard's own.
func (sh *Shard[T]) respawn() {
	if sh.Col != nil {
		sh.retired = append(sh.retired, sh.Col.Report())
	}
	sh.fl.res.Forget(sh.M)
	sh.respawns.Add(1)
	if err := sh.boot(); err != nil {
		// A snapshot restore cannot fail, so only Setup can land here;
		// record it and let the shard keep draining (and dropping) so
		// Close never deadlocks.
		sh.errs = append(sh.errs, fmt.Errorf("shard %d: respawn: %w", sh.ID, err))
	}
}

// Submit routes one item by its flow key. Identical flows always reach
// the same shard, preserving per-flow order; the item rides in the
// shard's current batch and is handed off when the batch fills (or at
// Flush or Close). Submit blocks when the target shard's queue is full —
// backpressure for closed-loop producers; open-loop producers use
// SubmitTo and shed instead. After Close it returns ErrClosed.
func (fl *Fleet[T]) Submit(flow uint64, item T) error {
	if fl.closed {
		return ErrClosed
	}
	fl.add(FlowShard(flow, len(fl.shards)), item, true, time.Time{})
	return nil
}

// SubmitTo adds item to shard id's batch — the door the overload
// layer's re-steering table walks through to move a flow off its sick
// home shard. When the batch fills and the shard's queue has no slot,
// it waits for one until deadline; a past deadline, the zero Time
// included, means no wait. A false return leaves the fleet untouched:
// the item was not admitted (also after Close, or for an unknown
// shard). Choosing shards by anything other than a stable function of
// the flow key forfeits per-flow ordering unless the caller provides
// its own drain barrier, as the re-steerer does.
func (fl *Fleet[T]) SubmitTo(id int, item T, deadline time.Time) bool {
	if fl.closed || id < 0 || id >= len(fl.shards) {
		return false
	}
	return fl.add(id, item, false, deadline)
}

// Flush hands off shard id's partial batch under SubmitTo's deadline
// rule: true when the shard has no partial batch left (flushed now, or
// there was none), false when no queue slot freed in time, the fleet is
// closed, or the shard is unknown. The re-steering layer flushes with
// no wait to start a drain barrier without stalling behind the very
// congestion it is routing around.
func (fl *Fleet[T]) Flush(id int, deadline time.Time) bool {
	if fl.closed || id < 0 || id >= len(fl.shards) {
		return false
	}
	return fl.flush(id, false, deadline)
}

// add appends item to shard id's partial batch and hands the batch off
// once it is full.
func (fl *Fleet[T]) add(id int, item T, block bool, deadline time.Time) bool {
	batch := append(fl.pending[id], item)
	if len(batch) < fl.cfg.Batch {
		fl.pending[id] = batch
		return true
	}
	return fl.handOff(id, batch, block, deadline)
}

// flush hands off shard id's partial batch, if it has one.
func (fl *Fleet[T]) flush(id int, block bool, deadline time.Time) bool {
	if len(fl.pending[id]) == 0 {
		return true
	}
	return fl.handOff(id, fl.pending[id], block, deadline)
}

// handOff queues batch on shard id and starts a fresh partial batch.
// A refused hand-off leaves the partial batch as it was.
func (fl *Fleet[T]) handOff(id int, batch []T, block bool, deadline time.Time) bool {
	if !fl.send(id, envelope[T]{batch: batch}, block, deadline) {
		return false
	}
	fl.pending[id] = make([]T, 0, fl.cfg.Batch)
	return true
}

// send is the fleet's one hand-off: it queues env on shard id and counts
// it toward the drain barrier. With block it waits as long as the queue
// is full; otherwise it waits for a slot until deadline, and a past
// deadline means no wait.
func (fl *Fleet[T]) send(id int, env envelope[T], block bool, deadline time.Time) bool {
	in := fl.shards[id].in
	select {
	case in <- env:
	default:
		var expired <-chan time.Time // nil: never fires, so the send blocks
		if !block {
			wait := time.Until(deadline)
			if wait <= 0 {
				return false
			}
			t := time.NewTimer(wait)
			defer t.Stop()
			expired = t.C
		}
		select {
		case in <- env:
		case <-expired:
			return false
		}
	}
	fl.enq[id]++
	return true
}

// Exec runs fn on shard id's goroutine, after everything already queued
// for that shard, and returns fn's error. The shard's machine,
// supervisor, and collector are fn's to use — this is the fleet's only
// sanctioned way to touch a live shard from outside, and the door the
// reconfiguration layer walks through to apply and roll back upgrades
// between batches. Single-producer like Submit; blocks until fn ran.
func (fl *Fleet[T]) Exec(id int, fn func(*Shard[T]) error) error {
	if fl.closed {
		return fmt.Errorf("fleet: Exec after Close")
	}
	if id < 0 || id >= len(fl.shards) {
		return fmt.Errorf("fleet: Exec on unknown shard %d", id)
	}
	// Flush the shard's partial batch first so fn observes (and follows)
	// all traffic submitted before it.
	fl.flush(id, true, time.Time{})
	reply := make(chan error, 1)
	fl.send(id, envelope[T]{ctrl: fn, reply: reply}, true, time.Time{})
	return <-reply
}

// TryExec enqueues fn on shard id's goroutine without blocking and
// without waiting for it to run; fn's error, if any, lands in the
// shard's error log. False when the shard's queue has no slot (or the
// fleet is closed). Unlike Exec it does not flush the shard's partial
// batch — callers needing ordering against pending traffic use Exec.
// The overload layer uses it to apply brownout swaps to shards whose
// queues may be full — exactly when a blocking Exec would stall the
// producer behind the congestion it is trying to relieve.
func (fl *Fleet[T]) TryExec(id int, fn func(*Shard[T]) error) bool {
	if fl.closed || id < 0 || id >= len(fl.shards) {
		return false
	}
	return fl.send(id, envelope[T]{ctrl: fn}, false, time.Time{})
}

// ShardPolicy returns the restart policy shard id was booted with — the
// same decorrelated derivation boot uses — so a controller that
// temporarily overrode a shard's policy can restore the original.
func (fl *Fleet[T]) ShardPolicy(id int) *supervise.Policy {
	return fl.cfg.Policy.ForShard(id)
}

// Batch returns the configured batch size.
func (fl *Fleet[T]) Batch() int { return fl.cfg.Batch }

// QueueDepth is how many envelopes sit unprocessed in shard id's queue
// right now; QueueCap is the queue's capacity. Both are safe live.
func (fl *Fleet[T]) QueueDepth(id int) int { return len(fl.shards[id].in) }
func (fl *Fleet[T]) QueueCap(id int) int   { return cap(fl.shards[id].in) }

// PendingLen is how many items wait in shard id's partial batch.
// Producer-side state: producer goroutine only.
func (fl *Fleet[T]) PendingLen(id int) int { return len(fl.pending[id]) }

// Pressure is shard id's queue occupancy in [0, 1]: queued envelopes
// plus the partial batch's fill fraction, over the queue capacity. The
// overload layer's admission thresholds are expressed against it.
// Producer goroutine only (it reads pending).
func (fl *Fleet[T]) Pressure(id int) float64 {
	frac := float64(len(fl.pending[id])) / float64(fl.cfg.Batch)
	return (float64(len(fl.shards[id].in)) + frac) / float64(cap(fl.shards[id].in))
}

// Enqueued counts envelopes handed to shard id's queue so far.
// Producer-side counter; with Shard.Completed it forms the re-steering
// drain barrier: once Completed catches up to an Enqueued reading,
// everything submitted before that reading has been fully processed.
func (fl *Fleet[T]) Enqueued(id int) uint64 { return fl.enq[id] }

// Completed counts envelopes this shard has fully processed (batches
// through the handler and redelivery policy, control functions run).
// Safe from any goroutine.
func (sh *Shard[T]) Completed() uint64 { return sh.completed.Load() }

// Close flushes, stops every shard, and waits for them to drain. It
// returns the accumulated shard errors (each already attributed to its
// shard and respawn generation). Idempotent: repeated calls return the
// first call's result. After Close the fleet's reports and per-shard
// state are safe to read from any goroutine.
func (fl *Fleet[T]) Close() error {
	if fl.closed {
		return fl.closeErr
	}
	for id := range fl.shards {
		fl.flush(id, true, time.Time{})
	}
	fl.closed = true
	for _, sh := range fl.shards {
		close(sh.in)
	}
	var errs []error
	for _, sh := range fl.shards {
		<-sh.done
		errs = append(errs, sh.errs...)
	}
	fl.closeErr = errors.Join(errs...)
	return fl.closeErr
}

// Shards exposes the shard list (read shard state only after Close, or
// from the shard's own handler; the atomic accessors are safe live).
func (fl *Fleet[T]) Shards() []*Shard[T] { return fl.shards }

// Served counts items the shard's handler completed (acked progress of
// failed batches included); Dropped counts items lost to respawns after
// the redelivery policy gave up; Redelivered counts items replayed onto
// a respawned machine (an item replayed twice counts twice); Respawns
// counts reboots from the snapshot. All safe to read live.
func (sh *Shard[T]) Served() uint64      { return sh.served.Load() }
func (sh *Shard[T]) Dropped() uint64     { return sh.dropped.Load() }
func (sh *Shard[T]) Redelivered() uint64 { return sh.redeliv.Load() }
func (sh *Shard[T]) Respawns() int       { return int(sh.respawns.Load()) }

// Report rolls every shard's ledger — live collectors plus the retired
// ledgers of respawned predecessors — into one fleet-wide report via
// the observe merge path.
func (fl *Fleet[T]) Report() *observe.Report {
	var parts []*observe.Report
	for _, sh := range fl.shards {
		parts = append(parts, sh.retired...)
		if sh.Col != nil {
			parts = append(parts, sh.Col.Report())
		}
	}
	return observe.MergeReports(parts...)
}

// Statuses returns each live shard's supervisor view, indexed by shard.
func (fl *Fleet[T]) Statuses() [][]supervise.InstanceStatus {
	out := make([][]supervise.InstanceStatus, len(fl.shards))
	for i, sh := range fl.shards {
		out[i] = sh.Sup.Report()
	}
	return out
}
