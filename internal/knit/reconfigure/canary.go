package reconfigure

import (
	"errors"
	"fmt"
	"sort"

	"knit/internal/knit/fleet"
	"knit/internal/knit/observe"
)

// Decision is a canary judgment.
type Decision int

const (
	// Pending: not enough evidence yet; keep serving and observing.
	Pending Decision = iota
	// Promote: the canaries held the SLO long enough; roll the plan out
	// to the stable shards.
	Promote
	// Rollback: the canaries broke the SLO; restore their pre-apply
	// snapshots.
	Rollback
)

func (d Decision) String() string {
	switch d {
	case Promote:
		return "promote"
	case Rollback:
		return "rollback"
	default:
		return "pending"
	}
}

// Canary runs one plan through a canary trial on a fleet: Start applies
// it to the lowest-numbered fraction of shards under a fail-fast trial
// policy, Observe advances the SLO windows and judges, Promote and
// Rollback finish the trial either way. Drive it from the fleet's
// producer goroutine, interleaved with Submit — every shard touch goes
// through fleet.Exec, so upgrades apply between batches, never inside
// one.
type Canary[T any] struct {
	fl   *fleet.Fleet[T]
	plan *Plan
	slo  observe.SLO

	canaries []int
	stables  []int
	applied  map[int]*Applied
	wins     map[int]*observe.Window
	// respawns is each canary's fleet respawn count at Start. A respawn
	// during the trial means the upgraded machine died beyond the
	// supervisor's recovery and the fleet rebooted it from the
	// pre-upgrade snapshot — an automatic rollback, and one the trap
	// window alone could miss (the reboot retires the collector).
	respawns map[int]int

	healthy    int
	done       bool
	verifyErrs []error
}

// NewCanary plans a trial of plan on fraction of fl's shards (at least
// one canary, at least one stable shard — fleets of one shard cannot
// canary; upgrade them directly with Plan.Apply). slo judges the
// canaries' windowed trap rate and cycle tail as candidate against the
// stable shards' over the same interval as baseline — the same judge
// the overload layer's circuit breakers trip on.
func NewCanary[T any](fl *fleet.Fleet[T], plan *Plan, fraction float64, slo observe.SLO) (*Canary[T], error) {
	n := len(fl.Shards())
	if n < 2 {
		return nil, fmt.Errorf("reconfigure: canary needs >= 2 shards, fleet has %d", n)
	}
	k := int(fraction * float64(n))
	if k < 1 {
		k = 1
	}
	if k >= n {
		k = n - 1
	}
	c := &Canary[T]{
		fl:       fl,
		plan:     plan,
		slo:      slo.WithDefaults(),
		applied:  map[int]*Applied{},
		wins:     map[int]*observe.Window{},
		respawns: map[int]int{},
	}
	for id := 0; id < n; id++ {
		if id < k {
			c.canaries = append(c.canaries, id)
		} else {
			c.stables = append(c.stables, id)
		}
	}
	return c, nil
}

// Canaries returns the shard IDs under trial.
func (c *Canary[T]) Canaries() []int { return append([]int(nil), c.canaries...) }

// Start applies the plan to the canary shards and re-bases every
// shard's SLO window at this instant, so judgment sees only
// post-upgrade traffic. Canaries run under Policy.ForCanary for the
// trial. If any canary fails to apply, the ones already upgraded are
// rolled back and Start returns the error — the fleet is untouched.
func (c *Canary[T]) Start() error {
	for _, id := range c.canaries {
		id := id
		err := c.fl.Exec(id, func(sh *fleet.Shard[T]) error {
			a, err := c.plan.Apply(sh.M, nil)
			if err != nil {
				return err
			}
			c.applied[id] = a
			sh.Sup.SetPolicy(c.fl.ShardPolicy(id).ForCanary())
			w := observe.NewWindow(c.slo.Windows)
			w.Reset(sh.Col.Totals())
			c.wins[id] = w
			c.respawns[id] = sh.Respawns()
			return nil
		})
		if err != nil {
			c.rollbackCanaries()
			c.done = true
			return fmt.Errorf("reconfigure: canary shard %d: %w", id, err)
		}
	}
	for _, id := range c.stables {
		id := id
		c.fl.Exec(id, func(sh *fleet.Shard[T]) error {
			w := observe.NewWindow(c.slo.Windows)
			w.Reset(sh.Col.Totals())
			c.wins[id] = w
			return nil
		})
	}
	return nil
}

// Observe advances every shard's window one tick and judges the trial.
// Call it at a steady cadence between Submit batches; act on the
// returned decision with Promote or Rollback (Pending means keep
// going).
func (c *Canary[T]) Observe() Decision {
	if c.done {
		return Pending
	}
	var canS, stS observe.Sample
	died := false
	for id, win := range c.wins {
		id, win := id, win
		c.fl.Exec(id, func(sh *fleet.Shard[T]) error {
			win.Advance(sh.Col.Totals())
			if base, ok := c.respawns[id]; ok && sh.Respawns() > base {
				died = true
			}
			return nil
		})
	}
	if died {
		return Rollback
	}
	for _, id := range c.canaries {
		canS.Add(c.wins[id].Current())
	}
	for _, id := range c.stables {
		stS.Add(c.wins[id].Current())
	}
	switch c.slo.Judge(canS, stS) {
	case observe.Breaching:
		return Rollback
	case observe.Inconclusive:
		return Pending
	}
	c.healthy++
	if c.healthy >= c.slo.PromoteAfter {
		return Promote
	}
	return Pending
}

// Promote rolls the plan out to the stable shards and restores the
// canaries' original policies. If a stable shard fails to apply — it
// should not, the canaries proved the plan — every shard is rolled
// back, canaries included, and the error is returned.
func (c *Canary[T]) Promote() error {
	if c.done {
		return fmt.Errorf("reconfigure: trial already finished")
	}
	for _, id := range c.stables {
		id := id
		err := c.fl.Exec(id, func(sh *fleet.Shard[T]) error {
			a, err := c.plan.Apply(sh.M, nil)
			if err != nil {
				return err
			}
			c.applied[id] = a
			return nil
		})
		if err != nil {
			c.rollbackAll()
			c.done = true
			return fmt.Errorf("reconfigure: promote to shard %d: %w", id, err)
		}
	}
	for _, id := range c.canaries {
		id := id
		c.fl.Exec(id, func(sh *fleet.Shard[T]) error {
			sh.Sup.SetPolicy(c.fl.ShardPolicy(id))
			return nil
		})
	}
	c.done = true
	return nil
}

// Rollback restores every canary shard to its pre-apply snapshot,
// verifies the restore left zero residue, and restores the original
// policies. The verification result is available via RollbackVerified.
func (c *Canary[T]) Rollback() error {
	if c.done {
		return fmt.Errorf("reconfigure: trial already finished")
	}
	c.rollbackCanaries()
	c.done = true
	return errors.Join(c.verifyErrs...)
}

// RollbackVerified returns the snapshot-identity verification errors
// collected during rollback (nil when every restored shard matched its
// pre-apply snapshot word for word).
func (c *Canary[T]) RollbackVerified() error { return errors.Join(c.verifyErrs...) }

func (c *Canary[T]) rollbackCanaries() {
	ids := make([]int, 0, len(c.applied))
	for id := range c.applied {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		id := id
		c.fl.Exec(id, func(sh *fleet.Shard[T]) error {
			a := c.applied[id]
			a.Rollback()
			if err := a.VerifyRolledBack(); err != nil {
				c.verifyErrs = append(c.verifyErrs, fmt.Errorf("shard %d: %w", id, err))
			}
			sh.Sup.SetPolicy(c.fl.ShardPolicy(id))
			sh.Sup.Reset()
			return nil
		})
	}
}

func (c *Canary[T]) rollbackAll() { c.rollbackCanaries() }
