package overload

import "knit/internal/knit/observe"

// BreakerState is a per-shard circuit breaker state.
type BreakerState int

const (
	// Closed: the shard serves normally; its window is judged against
	// its closed siblings every tick.
	Closed BreakerState = iota
	// Open: the shard breached (or respawned); new flows steer away and
	// the breaker cools down before probing.
	Open
	// HalfOpen: probation — unremapped flows serve on the shard again as
	// probe traffic (when none reach it, its steered flows return home
	// to probe); sustained healthy judgments close the breaker, any
	// breach or respawn reopens it.
	HalfOpen

	numBreakerStates
)

var breakerNames = [numBreakerStates]string{
	Closed:   "closed",
	Open:     "open",
	HalfOpen: "half-open",
}

func (s BreakerState) String() string {
	if s >= 0 && s < numBreakerStates {
		return breakerNames[s]
	}
	return "state?"
}

// breaker is one shard's book: a sliding health window plus the
// closed → open → half-open state machine.
type breaker struct {
	state BreakerState
	win   *observe.Window
	// cur is this tick's window total, cached by Tick so every shard's
	// judgment uses the same snapshot of its siblings.
	cur observe.Sample
	// breaches counts consecutive Breaching verdicts while closed;
	// healthy counts consecutive Meeting verdicts while half-open.
	breaches     int
	healthy      int
	cool         int
	lastRespawns int
}

// judge applies one tick's evidence to one breaker. A respawn is
// treated as conclusive — the machine died beyond the supervisor's
// recovery; windowed trap-rate/p99 evidence goes through the shared
// SLO judge against the closed siblings' combined window.
func (c *Controller[T]) judge(b *breaker, respawned bool, base observe.Sample) {
	switch b.state {
	case Closed:
		if respawned {
			c.trip(b)
			return
		}
		switch c.cfg.SLO.Judge(b.cur, base) {
		case observe.Breaching:
			b.breaches++
			if b.breaches >= c.cfg.TripAfter {
				c.trip(b)
			}
		case observe.Meeting:
			b.breaches = 0
		}
	case Open:
		if respawned {
			b.cool = c.cfg.CoolTicks // still dying; restart the cooldown
			return
		}
		b.cool--
		if b.cool <= 0 {
			b.state = HalfOpen
			b.healthy = 0
		}
	case HalfOpen:
		if respawned || c.cfg.SLO.Judge(b.cur, base) == observe.Breaching {
			b.state = Open
			b.cool = c.cfg.CoolTicks
			c.stats.Reopens++
			return
		}
		if c.cfg.SLO.Judge(b.cur, base) == observe.Meeting {
			b.healthy++
			if b.healthy >= c.cfg.SLO.PromoteAfter {
				b.state = Closed
				b.breaches = 0
				c.stats.Closes++
			}
		}
	}
}

func (c *Controller[T]) trip(b *breaker) {
	b.state = Open
	b.cool = c.cfg.CoolTicks
	b.breaches = 0
	c.stats.Trips++
}
