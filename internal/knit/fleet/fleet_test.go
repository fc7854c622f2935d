package fleet

import (
	"strings"
	"testing"

	"knit/internal/knit/build"
	"knit/internal/machine"
)

// The test program is a stateful accumulator: init seeds the counter to
// 1000, work(x) adds x, total() reads it back. The seed value proves
// shards boot from the post-init snapshot (a shard that skipped init
// would start at 0; one that re-ran init after serving would reset).
const counterUnits = `
bundletype Main = { work, total }

unit Counter = {
  exports [ main : Main ];
  initializer cnt_init for main;
  files { "counter.c" };
}
`

const counterSource = `
static int n = 0;
void cnt_init(void) { n = 1000; }
int work(int x) { n = n + x; return n; }
int total(void) { return n; }
`

func buildCounter(t *testing.T) *build.Result {
	t.Helper()
	res, err := build.Build(build.Options{
		Top:       "Counter",
		UnitFiles: map[string]string{"counter.unit": counterUnits},
		Sources:   map[string]string{"counter.c": counterSource},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return res
}

// flowFor finds a flow key that lands on the wanted shard.
func flowFor(t *testing.T, shard, shards int) uint64 {
	t.Helper()
	for flow := uint64(0); flow < 1<<16; flow++ {
		if FlowShard(flow, shards) == shard {
			return flow
		}
	}
	t.Fatalf("no flow maps to shard %d of %d", shard, shards)
	return 0
}

// TestFleetShardsServeFromSharedSnapshot is the core tentpole check:
// N shards serve off one image and one post-init snapshot, each
// accumulating its own data; per-shard state never bleeds.
func TestFleetShardsServeFromSharedSnapshot(t *testing.T) {
	res := buildCounter(t)
	const shards = 3
	handler := func(sh *Shard[int64], batch []int64) error {
		for _, x := range batch {
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	fl, err := New[int64](res, Config{Shards: shards, Batch: 4}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Drive a known per-shard sum through flow keys pinned per shard.
	wantSum := make([]int64, shards)
	for s := 0; s < shards; s++ {
		flow := flowFor(t, s, shards)
		for i := int64(1); i <= 10; i++ {
			fl.Submit(flow, i*int64(s+1))
			wantSum[s] += i * int64(s+1)
		}
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rep := fl.Report()
	for s, sh := range fl.Shards() {
		got, err := sh.Sup.Call("main", "total")
		if err != nil {
			t.Fatalf("shard %d total: %v", s, err)
		}
		if got != 1000+wantSum[s] {
			t.Errorf("shard %d total = %d, want %d (1000 from snapshot init + %d)",
				s, got, 1000+wantSum[s], wantSum[s])
		}
		if sh.Respawns() != 0 || sh.Dropped() != 0 {
			t.Errorf("shard %d: respawns=%d dropped=%d, want 0/0", s, sh.Respawns(), sh.Dropped())
		}
		if sh.Served() != 10 {
			t.Errorf("shard %d served %d items, want 10", s, sh.Served())
		}
	}

	// The merged report aggregates every shard's calls (one per work
	// item) and shows zero init events: initializers ran once, on the
	// prototype, before any shard existed.
	var calls, inits uint64
	for i := range rep.Instances {
		calls += rep.Instances[i].Calls
		inits += rep.Instances[i].Inits
	}
	if calls != uint64(shards*10) {
		t.Errorf("merged report calls = %d, want %d", calls, shards*10)
	}
	if inits != 0 {
		t.Errorf("merged report records %d shard-side init steps; snapshot boot must skip init", inits)
	}
}

// TestFleetRespawnIsolated kills one shard via a handler error and
// checks the respawn semantics: the victim reboots from the shared
// snapshot (counter back at 1000), its pre-death ledger survives in the
// roll-up, and the siblings never notice.
func TestFleetRespawnIsolated(t *testing.T) {
	res := buildCounter(t)
	const shards = 3
	const poison = int64(-1)
	handler := func(sh *Shard[int64], batch []int64) error {
		for _, x := range batch {
			if x == poison {
				return errBatchPoisoned
			}
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	fl, err := New[int64](res, Config{Shards: shards, Batch: 1}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const victim = 1
	victimFlow := flowFor(t, victim, shards)
	// Pre-death work on the victim, then the poison, then post-respawn
	// work; Batch=1 keeps each step its own hand-off, and per-shard FIFO
	// order makes the sequence deterministic.
	fl.Submit(victimFlow, 7)
	fl.Submit(victimFlow, poison)
	fl.Submit(victimFlow, 5)
	otherFlow := flowFor(t, 0, shards)
	fl.Submit(otherFlow, 3)
	if err := fl.Close(); err == nil {
		t.Fatal("Close: want the poisoned batch's error, got nil")
	} else if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Close error does not attribute shard 1: %v", err)
	}

	rep := fl.Report()
	for s, sh := range fl.Shards() {
		wantRespawns := 0
		if s == victim {
			wantRespawns = 1
		}
		if sh.Respawns() != wantRespawns {
			t.Errorf("shard %d respawns = %d, want %d (fault must stay on the victim)",
				s, sh.Respawns(), wantRespawns)
		}
	}
	// Post-respawn the victim restarted from the snapshot: 1000 + 5,
	// the pre-death 7 gone with the dead machine.
	got, err := fl.Shards()[victim].Sup.Call("main", "total")
	if err != nil {
		t.Fatalf("victim total: %v", err)
	}
	if got != 1005 {
		t.Errorf("victim total = %d, want 1005 (fresh snapshot + post-respawn work)", got)
	}
	if got, _ := fl.Shards()[0].Sup.Call("main", "total"); got != 1003 {
		t.Errorf("sibling total = %d, want 1003", got)
	}
	// Ledger continuity: 3 work calls happened fleet-wide (7, 5, 3);
	// the pre-death call lives in the victim's retired report.
	var calls uint64
	for i := range rep.Instances {
		calls += rep.Instances[i].Calls
	}
	if calls != 3 {
		t.Errorf("merged report calls = %d, want 3 (retired ledger lost?)", calls)
	}
	if fl.Shards()[victim].Dropped() != 1 {
		t.Errorf("victim dropped = %d, want 1", fl.Shards()[victim].Dropped())
	}
}

// TestFleetRetiredLedgerFoldsEveryGeneration kills one shard 64 times:
// the fleet report still counts every generation's calls, and the
// shard keeps its dead predecessors' ledgers as one folded report, not
// one per respawn.
func TestFleetRetiredLedgerFoldsEveryGeneration(t *testing.T) {
	res := buildCounter(t)
	const shards, kills = 2, 64
	const poison = int64(-1)
	handler := func(sh *Shard[int64], batch []int64) error {
		for _, x := range batch {
			if x == poison {
				return errBatchPoisoned
			}
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	fl, err := New[int64](res, Config{Shards: shards, Batch: 1}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	victim := flowFor(t, 1, shards)
	for i := 0; i < kills; i++ {
		fl.Submit(victim, 1)
		fl.Submit(victim, poison)
	}
	fl.Submit(victim, 1)
	if err := fl.Close(); err == nil {
		t.Fatal("Close: want the poisoned batches' errors, got nil")
	}
	sh := fl.Shards()[1]
	if sh.Respawns() != kills {
		t.Fatalf("victim respawns = %d, want %d", sh.Respawns(), kills)
	}
	var calls uint64
	for _, im := range fl.Report().Instances {
		calls += im.Calls
	}
	if calls != kills+1 {
		t.Errorf("fleet report counts %d calls, want %d (one per generation plus the live one)", calls, kills+1)
	}
	if n := len(sh.retired.Instances); n != 1 || sh.retired.Instances[0].Calls != kills {
		t.Errorf("retired ledger = %+v, want one row with %d calls", sh.retired.Instances, kills)
	}
}

// TestFleetRespawnSetupFailure: when the respawn's Setup fails, the
// shard keeps serving on its old machine, which the fleet must not have
// released, and that machine's ledger is counted once, not once live
// and once retired.
func TestFleetRespawnSetupFailure(t *testing.T) {
	res := buildCounter(t)
	const shards, victim = 2, 1
	const poison = int64(-1)
	handler := func(sh *Shard[int64], batch []int64) error {
		for _, x := range batch {
			if x == poison {
				return errBatchPoisoned
			}
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	// The victim's first boot succeeds; its respawn's Setup fails.
	boots := 0
	setup := func(id int, m *machine.M) error {
		if id != victim {
			return nil
		}
		if boots++; boots > 1 {
			return errSetupFailed
		}
		return nil
	}
	fl, err := New[int64](res, Config{Shards: shards, Batch: 1, Setup: setup}, handler)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	flow := flowFor(t, victim, shards)
	fl.Submit(flow, 7)
	fl.Submit(flow, poison)
	fl.Submit(flow, 5)
	if err := fl.Close(); err == nil || !strings.Contains(err.Error(), "shard 1: respawn: "+string(errSetupFailed)) {
		t.Fatalf("Close = %v, want the failed respawn reported", err)
	}
	sh := fl.Shards()[victim]
	if sh.Respawns() != 1 || sh.Dropped() != 1 || sh.Served() != 2 {
		t.Errorf("respawns=%d dropped=%d served=%d, want 1/1/2", sh.Respawns(), sh.Dropped(), sh.Served())
	}
	// The old machine served on: 1000 + 7 + 5.
	if got, err := sh.Sup.Call("main", "total"); err != nil || got != 1012 {
		t.Errorf("victim total = %d, %v; want 1012 on the old machine", got, err)
	}
	var calls uint64
	for _, im := range fl.Report().Instances {
		calls += im.Calls
	}
	if calls != 3 { // work(7), work(5) and total()
		t.Errorf("fleet report counts %d calls, want 3", calls)
	}
}

var errSetupFailed = errString("device setup failed")

var errBatchPoisoned = errString("machine wedged beyond recovery")

type errString string

func (e errString) Error() string { return string(e) }

// TestFleetConfigValidation covers the constructor's error paths.
func TestFleetConfigValidation(t *testing.T) {
	res := buildCounter(t)
	if _, err := New[int](res, Config{Shards: 0}, func(*Shard[int], []int) error { return nil }); err == nil {
		t.Error("Shards=0 must be rejected")
	}
	if _, err := New[int](res, Config{Shards: 1}, nil); err == nil {
		t.Error("nil handler must be rejected")
	}
}
