package fleet

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestFleetCloseIdempotentAndSubmitAfterClose covers the graceful-
// shutdown contract: Close and Flush may be called repeatedly, and a
// late Submit returns ErrClosed, not a panic.
func TestFleetCloseIdempotentAndSubmitAfterClose(t *testing.T) {
	res := buildCounter(t)
	handler := func(sh *Shard[int64], batch []int64) error {
		for _, x := range batch {
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	fl, err := New[int64](res, Config{Shards: 2, Batch: 4}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fl.Submit(1, 3); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	fl.Flush(0, time.Now().Add(time.Second)) // must be a no-op, not a send on a closed channel

	if err := fl.Submit(1, 9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if fl.SubmitTo(FlowShard(1, 2), 9, time.Time{}) {
		t.Fatal("no-wait SubmitTo after Close must refuse")
	}
	if fl.SubmitTo(0, 9, time.Now().Add(time.Second)) {
		t.Fatal("deadline SubmitTo after Close must refuse")
	}
}

// TestFleetTrySubmitBackpressure pins SubmitTo's refusal semantics: a
// full shard queue refuses admission without blocking the producer and
// without disturbing fleet state, and admission resumes once the shard
// drains.
func TestFleetTrySubmitBackpressure(t *testing.T) {
	res := buildCounter(t)
	gate := make(chan struct{})
	var gated atomic.Bool
	gated.Store(true)
	handler := func(sh *Shard[int64], batch []int64) error {
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
	fl, err := New[int64](res, Config{Shards: 1, Batch: 1, Queue: 1}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// First item: picked up by the shard, which parks in the handler.
	if !fl.SubmitTo(0, 1, time.Time{}) {
		t.Fatal("first admission must succeed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for fl.QueueDepth(0) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Second: occupies the single queue slot. Third must be refused —
	// the shard is parked, the queue full, and the producer never blocks.
	if !fl.SubmitTo(0, 2, time.Time{}) {
		t.Fatal("second item should take the queue slot")
	}
	if fl.SubmitTo(0, 3, time.Time{}) {
		t.Fatal("third item must be refused: shard parked, queue full")
	}
	if fl.SubmitTo(0, 3, time.Now().Add(10*time.Millisecond)) {
		t.Fatal("deadline submit must expire against a parked shard")
	}

	gated.Store(false)
	close(gate)
	if !fl.SubmitTo(0, 3, time.Now().Add(2*time.Second)) {
		t.Fatal("deadline submit must succeed once the shard drains")
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sh := fl.Shards()[0]
	if sh.Served() != 3 || sh.Dropped() != 0 {
		t.Fatalf("served=%d dropped=%d, want 3/0", sh.Served(), sh.Dropped())
	}
	// Drain barrier bookkeeping: everything enqueued was completed.
	if fl.Enqueued(0) != sh.Completed() {
		t.Fatalf("enqueued %d != completed %d", fl.Enqueued(0), sh.Completed())
	}
	if got, _ := sh.Sup.Call("main", "total"); got != 1006 {
		t.Fatalf("total = %d, want 1006", got)
	}
}

// TestFleetRedeliveryResumesAtAck: with RedeliverAttempts > 0, a
// transient handler death replays only the unacked remainder of the
// in-flight batch onto the respawned machine — nothing is dropped and
// acked items are not re-served.
func TestFleetRedeliveryResumesAtAck(t *testing.T) {
	res := buildCounter(t)
	const poison = int64(-1)
	trips := 1
	handler := func(sh *Shard[int64], batch []int64) error {
		for i, x := range batch {
			if x == poison {
				if trips > 0 {
					trips--
					return errBatchPoisoned
				}
				x = 100 // the transient fault cleared on replay
			}
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
			sh.Ack(i + 1)
		}
		return nil
	}
	fl, err := New[int64](res, Config{Shards: 1, Batch: 3, RedeliverAttempts: 2}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, x := range []int64{7, poison, 5} {
		if err := fl.Submit(0, x); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := fl.Close(); err == nil {
		t.Fatal("Close: want the poisoned attempt's error, got nil")
	}
	sh := fl.Shards()[0]
	if sh.Served() != 3 || sh.Dropped() != 0 || sh.Redelivered() != 2 || sh.Respawns() != 1 {
		t.Fatalf("served=%d dropped=%d redelivered=%d respawns=%d, want 3/0/2/1",
			sh.Served(), sh.Dropped(), sh.Redelivered(), sh.Respawns())
	}
	// The respawned machine saw only the replayed remainder: the acked 7
	// died with the old machine's state, the remainder re-ran as 100+5.
	if got, _ := sh.Sup.Call("main", "total"); got != 1105 {
		t.Fatalf("total = %d, want 1105 (snapshot 1000 + replayed 100 + 5)", got)
	}
}

// TestFleetRedeliveryGivesUp: a persistent fault exhausts the attempt
// budget and the remainder is dropped — bounded retries, no livelock.
func TestFleetRedeliveryGivesUp(t *testing.T) {
	res := buildCounter(t)
	const poison = int64(-1)
	handler := func(sh *Shard[int64], batch []int64) error {
		for i, x := range batch {
			if x == poison {
				return errBatchPoisoned
			}
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
			sh.Ack(i + 1)
		}
		return nil
	}
	fl, err := New[int64](res, Config{Shards: 1, Batch: 2, RedeliverAttempts: 1}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fl.Submit(0, 7)
	fl.Submit(0, poison)
	if err := fl.Close(); err == nil {
		t.Fatal("Close: want poisoned-attempt errors, got nil")
	}
	sh := fl.Shards()[0]
	if sh.Served() != 1 || sh.Dropped() != 1 || sh.Redelivered() != 1 || sh.Respawns() != 2 {
		t.Fatalf("served=%d dropped=%d redelivered=%d respawns=%d, want 1/1/1/2",
			sh.Served(), sh.Dropped(), sh.Redelivered(), sh.Respawns())
	}
}

// TestFleetHealthSample: the cross-goroutine health snapshot reflects
// activity after each envelope completes.
func TestFleetHealthSample(t *testing.T) {
	res := buildCounter(t)
	handler := func(sh *Shard[int64], batch []int64) error {
		for _, x := range batch {
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	fl, err := New[int64](res, Config{Shards: 1, Batch: 2}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fl.Submit(0, 1)
	fl.Submit(0, 2)
	deadline := time.Now().Add(2 * time.Second)
	for fl.Shards()[0].HealthSample().Calls < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := fl.Shards()[0].HealthSample().Calls; got < 2 {
		t.Fatalf("health sample calls = %d, want >= 2", got)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
