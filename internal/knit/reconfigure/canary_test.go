package reconfigure

import (
	"errors"
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/build/faultinject"
	"knit/internal/knit/fleet"
	"knit/internal/knit/observe"
)

// chainFleet boots a fleet whose handler serves one c.get call per item
// through the shard's supervisor.
func chainFleet(t *testing.T, res *build.Result, shards int) *fleet.Fleet[int] {
	t.Helper()
	g, err := res.Export("c", "get")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(res, fleet.Config{Shards: shards, Batch: 8},
		func(sh *fleet.Shard[int], batch []int) error {
			for range batch {
				// The supervisor owns fault handling; a trapping call is
				// served-degraded, not a dead shard.
				sh.Sup.CallGlobal(g)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return fl
}

// feed submits one item per flow across many flows, touching every
// shard.
func feed(fl *fleet.Fleet[int], flows int) {
	for f := 0; f < flows; f++ {
		fl.Submit(uint64(f), f)
	}
}

func testSLO() observe.SLO {
	return observe.SLO{MinCalls: 16, Windows: 2, PromoteAfter: 2}
}

func TestCanaryPromote(t *testing.T) {
	res := buildChain(t, "B")
	fl := chainFleet(t, res, 4)
	defer fl.Close()
	plan, err := Diff(res, target("B2"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCanary(fl, plan, 0.25, testSLO())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Canaries(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("canaries = %v, want [0]", got)
	}
	feed(fl, 64)
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	decision := Pending
	for round := 0; round < 20 && decision == Pending; round++ {
		feed(fl, 64)
		decision = c.Observe()
	}
	if decision != Promote {
		t.Fatalf("decision = %v, want promote", decision)
	}
	if err := c.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	// Every shard now serves the upgraded pipeline.
	g, _ := res.Export("c", "get")
	for _, sh := range fl.Shards() {
		sh := sh
		err := fl.Exec(sh.ID, func(sh *fleet.Shard[int]) error {
			v, err := sh.M.Run(g)
			if err != nil {
				return err
			}
			if v != 212 {
				t.Errorf("shard %d serves %d after promote, want 212", sh.ID, v)
			}
			return nil
		})
		if err != nil {
			t.Errorf("shard %d: %v", sh.ID, err)
		}
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestCanaryRollbackOnSLOBreach(t *testing.T) {
	res := buildChain(t, "B")
	fl := chainFleet(t, res, 4)
	defer fl.Close()
	// B2Trap loads and initializes cleanly but traps on every serve
	// call: exactly the regression the SLO window must catch.
	plan, err := Diff(res, target("B2Trap"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCanary(fl, plan, 0.25, testSLO())
	if err != nil {
		t.Fatal(err)
	}
	feed(fl, 64)
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	decision := Pending
	for round := 0; round < 20 && decision == Pending; round++ {
		feed(fl, 64)
		decision = c.Observe()
	}
	if decision != Rollback {
		t.Fatalf("decision = %v, want rollback", decision)
	}
	if err := c.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if err := c.RollbackVerified(); err != nil {
		t.Fatalf("rollback not snapshot-identical: %v", err)
	}
	// The canary shard serves the original pipeline again, with no
	// residue of the bad module.
	g, _ := res.Export("c", "get")
	err = fl.Exec(0, func(sh *fleet.Shard[int]) error {
		if mods := sh.M.DynModules(); len(mods) != 0 {
			t.Errorf("canary still has modules %v after rollback", mods)
		}
		v, err := sh.M.Run(g)
		if err != nil {
			return err
		}
		if v != 21 {
			t.Errorf("canary serves %d after rollback, want 21", v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("canary post-rollback: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestCanaryStartFailureLeavesFleetUntouched(t *testing.T) {
	res := buildChain(t, "B")
	fl := chainFleet(t, res, 2)
	defer fl.Close()
	plan, err := Diff(res, target("B2Bad"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCanary(fl, plan, 0.5, testSLO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("Start with a failing initializer succeeded")
	}
	g, _ := res.Export("c", "get")
	for _, sh := range fl.Shards() {
		err := fl.Exec(sh.ID, func(sh *fleet.Shard[int]) error {
			if mods := sh.M.DynModules(); len(mods) != 0 {
				t.Errorf("shard %d has modules %v after failed start", sh.ID, mods)
			}
			if v, err := sh.M.Run(g); err != nil || v != 21 {
				t.Errorf("shard %d serves %d, %v; want 21", sh.ID, v, err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("shard %d: %v", sh.ID, err)
		}
	}
}

// TestCanaryPromoteFailureRollsBackEveryShard fails the stable shard's
// apply during Promote: the canary, which the trial had upgraded, must
// be rolled back with it, so every shard serves the base pipeline again.
func TestCanaryPromoteFailureRollsBackEveryShard(t *testing.T) {
	res := buildChain(t, "B")
	fl := chainFleet(t, res, 2)
	defer fl.Close()
	plan, err := Diff(res, target("B2"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCanary(fl, plan, 0.5, testSLO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	errBoom := errors.New("boom")
	fl.Exec(1, func(sh *fleet.Shard[int]) error {
		faultinject.Attach(sh.M).FailEntryMatching("b2_init", errBoom)
		return nil
	})
	if err := c.Promote(); !errors.Is(err, errBoom) {
		t.Fatalf("Promote = %v, want the stable shard's injected failure", err)
	}
	if err := c.RollbackVerified(); err != nil {
		t.Fatalf("rollback not snapshot-identical: %v", err)
	}
	g, _ := res.Export("c", "get")
	for _, sh := range fl.Shards() {
		err := fl.Exec(sh.ID, func(sh *fleet.Shard[int]) error {
			if mods := sh.M.DynModules(); len(mods) != 0 {
				t.Errorf("shard %d has modules %v after a failed promote", sh.ID, mods)
			}
			if v, err := sh.M.Run(g); err != nil || v != 21 {
				t.Errorf("shard %d serves %d, %v; want 21", sh.ID, v, err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("shard %d: %v", sh.ID, err)
		}
	}
}

func TestCanaryNeedsTwoShards(t *testing.T) {
	res := buildChain(t, "B")
	fl := chainFleet(t, res, 1)
	defer fl.Close()
	plan, err := Diff(res, target("B2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCanary(fl, plan, 0.5, observe.SLO{}); err == nil {
		t.Fatal("NewCanary accepted a one-shard fleet")
	}
}
