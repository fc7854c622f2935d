package clack

import (
	"fmt"
	"strings"
	"time"

	"knit/internal/knit/build"
	"knit/internal/knit/fleet"
	"knit/internal/knit/link"
	"knit/internal/knit/observe"
	"knit/internal/knit/reconfigure"
	"knit/internal/knit/supervise"
)

// This file is the live-reconfiguration serving mode: the standard
// router keeps forwarding flow-structured traffic while every
// Classifier slot is upgraded in place (ClassifierV2), or — the drill —
// while a regressed replacement (ClassifierBad) is caught by the canary
// SLO and rolled back. The upgrade path is the reconfigure package's:
// config diff against the running build, transactional per-shard apply,
// SLO-gated promote/rollback across the fleet.

// UpgradeTarget builds the reconfiguration target that swaps every
// Classifier slot of the standard router for unitName (keeping ports,
// wiring, and positions identical — which is exactly what makes the
// config diff minimal: two slot replacements, nothing else).
func UpgradeTarget(unitName string) (reconfigure.Target, error) {
	g, err := ParseConfig(StandardRouterConfig)
	if err != nil {
		return reconfigure.Target{}, err
	}
	routerUnits, genSources, top, err := g.CompileToKnit("ClackRouter")
	if err != nil {
		return reconfigure.Target{}, err
	}
	// The generated top-level unit wires each element instance with one
	// link line; editing the unit name on the classifier lines is the
	// whole configuration change.
	swapped := strings.ReplaceAll(routerUnits, "<- Classifier <-", "<- "+unitName+" <-")
	if swapped == routerUnits {
		return reconfigure.Target{}, fmt.Errorf("clack: no Classifier link lines in generated router units")
	}
	sources := link.Sources{}
	for k, v := range genSources {
		sources[k] = v
	}
	for k, v := range ElementSources() {
		sources[k] = v
	}
	return reconfigure.Target{
		Top:       top,
		UnitFiles: map[string]string{"clack.unit": ElementUnits + swapped},
		Sources:   sources,
	}, nil
}

// UpgradeReport extends a serving run's FleetReport with the canary
// trial's outcome.
type UpgradeReport struct {
	*FleetReport
	// Plan is the human-readable diff summary that was applied.
	Plan string
	// Canaries are the shard IDs that trialled the upgrade.
	Canaries []int
	// Promoted / RolledBack record how the trial ended (exactly one is
	// set). RollbackVerified reports that every rolled-back canary
	// matched its pre-apply snapshot word for word.
	Promoted         bool
	RolledBack       bool
	RollbackVerified bool
	// ObserveRounds counts SLO window ticks; DecisionAfter is how many
	// packets the fleet served between the canary apply and the
	// decision, and DecisionLatency the wall-clock span of the same
	// interval.
	ObserveRounds   int
	DecisionAfter   int
	DecisionLatency time.Duration
}

// upgradeSLO gates a serving-mode canary. MinCalls is sized so a window
// fills within a few observation ticks even on small CI runs.
func upgradeSLO() observe.SLO {
	return observe.SLO{MinCalls: 64, Windows: 4, PromoteAfter: 2}
}

// ServeFleetUpgrade serves spec's traffic over a sharded router fleet
// and, one third of the way into the stream, live-upgrades the
// classifiers: the plan is applied to `canaries` shards, judged against
// the stable shards' SLO window by window as traffic keeps flowing, and
// promoted fleet-wide or rolled back snapshot-identically. With bad set
// the replacement is ClassifierBad — the injected-regression drill that
// must end in a verified rollback.
func ServeFleetUpgrade(res *build.Result, spec FlowSpec, shards, canaries int, bad bool,
	pol *supervise.Policy, clk func(int) supervise.Clock) (*UpgradeReport, error) {

	unitName := "ClassifierV2"
	if bad {
		unitName = "ClassifierBad"
	}
	tgt, err := UpgradeTarget(unitName)
	if err != nil {
		return nil, err
	}
	plan, err := reconfigure.Diff(res, tgt)
	if err != nil {
		return nil, fmt.Errorf("clack: diff against %s: %w", unitName, err)
	}

	rg, err := newRig(res, fleet.Config{Shards: shards, Policy: pol, Clock: clk}, 0, 0)
	if err != nil {
		return nil, err
	}
	fl := rg.fl
	if canaries < 1 {
		canaries = 1
	}
	can, err := reconfigure.NewCanary(fl, plan, float64(canaries)/float64(shards), upgradeSLO())
	if err != nil {
		fl.Close()
		return nil, err
	}

	rep := &UpgradeReport{Plan: plan.Summary(), Canaries: can.Canaries()}
	pkts := spec.Generate()

	// Phase 1: warm the fleet on the base configuration.
	warm := len(pkts) / 3
	for _, fp := range pkts[:warm] {
		fl.Submit(fp.Flow, fp)
	}

	// Phase 2: apply to the canaries and keep serving, ticking the SLO
	// windows at a steady packet cadence.
	start := time.Now()
	if err := can.Start(); err != nil {
		fl.Close()
		return nil, fmt.Errorf("clack: canary start: %w", err)
	}
	decision := reconfigure.Pending
	act := func(d reconfigure.Decision, served int) error {
		decision = d
		rep.DecisionAfter = served
		rep.DecisionLatency = time.Since(start)
		if d == reconfigure.Promote {
			if err := can.Promote(); err != nil {
				return fmt.Errorf("clack: promote: %w", err)
			}
			rep.Promoted = true
			return nil
		}
		can.Rollback()
		rep.RolledBack = true
		rep.RollbackVerified = can.RollbackVerified() == nil
		return nil
	}
	tick := len(pkts) / 24
	if tick < 128 {
		tick = 128
	}
	served := 0
	for _, fp := range pkts[warm:] {
		fl.Submit(fp.Flow, fp)
		served++
		if decision == reconfigure.Pending && served%tick == 0 {
			rep.ObserveRounds++
			if d := can.Observe(); d != reconfigure.Pending {
				if err := act(d, served); err != nil {
					fl.Close()
					return nil, err
				}
			}
		}
	}
	// Phase 3: a trial still pending when the stream ends gets a last few
	// quiet window ticks; if it stays undecided the fleet must not be
	// left split — an unproven upgrade rolls back.
	for extra := 0; decision == reconfigure.Pending && extra < 2*upgradeSLO().Windows; extra++ {
		rep.ObserveRounds++
		if d := can.Observe(); d != reconfigure.Pending {
			if err := act(d, served); err != nil {
				fl.Close()
				return nil, err
			}
		}
	}
	if decision == reconfigure.Pending {
		if err := act(reconfigure.Rollback, served); err != nil {
			fl.Close()
			return nil, err
		}
	}
	if rep.FleetReport, err = rg.report(fl.Close()); err != nil {
		return nil, err
	}
	return rep, nil
}
