package build_test

import (
	"errors"
	"testing"
	"time"

	"knit/internal/knit/build"
	"knit/internal/knit/fleet"
)

const adderUnits = `
bundletype Main = { work }

unit Adder = {
  exports [ main : Main ];
  files { "adder.c" };
}
`

const adderSource = `
static int n = 0;
int work(int x) { n = n + x; return n; }
`

// TestFleetRespawnForgetsDeadMachine kills one fleet shard repeatedly
// and checks that the build result stops tracking each dead machine:
// after the fleet closes, the only machines it still holds state for
// are the live shards.
func TestFleetRespawnForgetsDeadMachine(t *testing.T) {
	res, err := build.Build(build.Options{
		Top:       "Adder",
		UnitFiles: map[string]string{"adder.unit": adderUnits},
		Sources:   map[string]string{"adder.c": adderSource},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	errKilled := errors.New("shard killed")
	handler := func(sh *fleet.Shard[int64], batch []int64) error {
		for _, x := range batch {
			if x < 0 {
				return errKilled
			}
			if _, err := sh.Sup.Call("main", "work", x); err != nil {
				return err
			}
		}
		return nil
	}
	const shards, kills = 2, 5
	// One item per batch and a queue deep enough for every item, so no
	// hand-off ever waits.
	fl, err := fleet.New[int64](res, fleet.Config{Shards: shards, Batch: 1, Queue: 2 * kills}, handler)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for i := 0; i < kills; i++ {
		if !fl.SubmitTo(0, -1, time.Time{}) || !fl.SubmitTo(0, 1, time.Time{}) {
			t.Fatal("SubmitTo refused an item with queue room to spare")
		}
	}
	if err := fl.Close(); !errors.Is(err, errKilled) {
		t.Fatalf("Close = %v, want the kills' errors", err)
	}
	if got := fl.Shards()[0].Respawns(); got != kills {
		t.Fatalf("shard 0 respawned %d times, want %d", got, kills)
	}
	if got := res.TrackedMachines(); got != shards {
		t.Fatalf("build result tracks %d machines after %d respawns, want %d (the live shards)",
			got, kills, shards)
	}
}
