// Package supervise keeps a built Knit system serving under component
// failures. It runs a build.Result as a long-lived service: every call
// into the program goes through the Supervisor, which attributes each
// fault to the owning unit instance (trap attribution from the machine,
// lifecycle errors from the build layer) and answers it with a
// declarative policy —
//
//	healthy ──fault──▶ backing-off ──restart ok──▶ healthy
//	    backing-off ──budget exhausted, fallback declared──▶ degraded
//	    backing-off ──budget exhausted, no fallback──▶ escalate to
//	        the parent scope; a root-scope exhaustion ──▶ dead
//
// Restarts use capped exponential backoff with seeded jitter over an
// injected clock. Degradation is the paper's interposition story (§2.3)
// applied at runtime: the failing instance's exports are redirected to
// a freshly loaded instance of its declared fallback unit, wired to the
// same imports — neighbors never notice. A per-call watchdog rides on
// machine.M.Fuel, turning a wedged component into an attributed trap.
package supervise

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"knit/internal/knit/build"
	"knit/internal/knit/link"
	"knit/internal/knit/observe"
	"knit/internal/knit/sched"
	"knit/internal/machine"
)

// State is a supervised instance's health.
type State int

const (
	// Healthy: serving with its original (or restarted) implementation.
	Healthy State = iota
	// BackingOff: a failure is being handled; the instance is inside
	// its backoff delay before the next restart attempt.
	BackingOff
	// Degraded: the instance's declared fallback unit is serving in its
	// place (runtime interposition).
	Degraded
	// Dead: every remedy is exhausted; the supervisor no longer
	// intervenes for this instance.
	Dead

	numStates
)

var stateNames = [numStates]string{
	Healthy:    "healthy",
	BackingOff: "backing-off",
	Degraded:   "degraded-to-fallback",
	Dead:       "dead",
}

func (s State) String() string {
	if s >= 0 && s < numStates {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// InstanceStatus is one row of Supervisor.Report.
type InstanceStatus struct {
	Path     string // original instance path, e.g. "ClackRouter/Classifier#3"
	Unit     string // unit name
	State    State
	Failures int // attributed failures observed (within and outside the window)
	Restarts int
	Swaps    int
	// ActiveModule names the live dynamic fallback module when the
	// instance is degraded.
	ActiveModule string
	LastError    string
	// Metrics is the instance's runtime ledger (calls, cycles, traps by
	// kind, lifecycle counters) when a Collector is attached via Observe;
	// nil otherwise, and nil for instances the collector never saw.
	Metrics *observe.InstanceMetrics
}

// Event is one entry of the supervisor's decision log. The log is
// deterministic for a deterministic fault sequence (given a FakeClock),
// which is what the backoff-determinism tests pin down.
type Event struct {
	At       time.Time
	Instance string
	Action   string // "fault", "backoff", "restart", "swap", "release", "escalate", "dead"
	Detail   string
}

// RecoveryRecord measures one fault-to-restored-service interval.
type RecoveryRecord struct {
	Instance string
	Mode     string // "restart", "swap", or "escalate"
	Latency  time.Duration
}

// Supervisor runs one machine's program under a policy. It is not safe
// for concurrent use; drive it from one serving loop.
type Supervisor struct {
	res *build.Result
	m   *machine.M
	pol *Policy
	clk Clock
	rng *rand.Rand

	states map[string]*instState // keyed by original instance path
	alias  map[string]*instState // fault attribution name -> state
	events []Event
	recov  []RecoveryRecord
	obs    *observe.Collector
}

// instState is the supervisor's book on one unit instance.
type instState struct {
	path   string         // original instance path ("" = whole program)
	inst   *link.Instance // original instance; nil for the program pseudo-state
	active *link.Instance // currently serving implementation
	lu     *build.LoadedUnit
	state  State

	failures []time.Time // attributed failures, pruned to the policy window
	total    int
	restarts int
	swaps    int
	escScope string // last scope escalated to; climbs toward ""
	lastErr  error
	// brownout marks a degradation entered proactively by DegradeAll
	// (load shedding) rather than by the fault handler; only these are
	// undone by RestoreAll. A fault while browned out clears the mark —
	// the instance has now earned its fallback.
	brownout bool
}

// New supervises res's program on m. The caller keeps ownership of m
// (devices, injectors); initialization is the caller's too — typically
// res.RunInit(m) before serving.
func New(res *build.Result, m *machine.M, pol *Policy, clk Clock) *Supervisor {
	if pol == nil {
		pol = Default()
	}
	if clk == nil {
		clk = Wall()
	}
	return &Supervisor{
		res:    res,
		m:      m,
		pol:    pol,
		clk:    clk,
		rng:    rand.New(rand.NewSource(pol.JitterSeed)),
		states: map[string]*instState{},
		alias:  map[string]*instState{},
	}
}

// SetPolicy replaces the supervisor's policy (nil restores Default) and
// reseeds the jitter source from the new policy. The canary controller
// uses it to tighten a shard's policy for the duration of a trial and
// restore the original afterwards; in-flight backoff state is untouched.
func (s *Supervisor) SetPolicy(pol *Policy) {
	if pol == nil {
		pol = Default()
	}
	s.pol = pol
	s.rng = rand.New(rand.NewSource(pol.JitterSeed))
}

// Policy returns the supervisor's current policy.
func (s *Supervisor) Policy() *Policy { return s.pol }

// Reset clears the supervisor's per-instance health book — failure
// windows, backoff states, fallback aliases — as if supervision had just
// begun. The decision log and recovery records are kept. Call it after a
// snapshot rollback: the machine state the book described no longer
// exists.
func (s *Supervisor) Reset() {
	s.states = map[string]*instState{}
	s.alias = map[string]*instState{}
}

// Observe wires a metrics collector into the supervised system: the
// collector (already attached to the supervisor's machine) starts
// receiving the build layer's lifecycle events — init/fini steps,
// restarts, fallback swaps, unloads — and Report embeds each instance's
// ledger in its row. Pass nil to disconnect.
func (s *Supervisor) Observe(c *observe.Collector) {
	s.obs = c
	if c == nil {
		s.res.SetObserver(s.m, nil)
		return
	}
	s.res.SetObserver(s.m, c)
}

// Collector returns the observe collector wired in via Observe, or nil.
func (s *Supervisor) Collector() *observe.Collector { return s.obs }

// Call runs one exported function under supervision: the watchdog fuel
// budget is armed, and any failure is attributed and handled per
// policy (backoff + restart, fallback swap, scope escalation) before
// Call returns. The call's own error is returned either way — the
// in-flight request is lost; the *next* call finds a recovered system.
func (s *Supervisor) Call(bundle, sym string, args ...int64) (int64, error) {
	global, err := s.res.Export(bundle, sym)
	if err != nil {
		return 0, err
	}
	return s.CallGlobal(global, args...)
}

// CallGlobal is Call with an already resolved global symbol.
func (s *Supervisor) CallGlobal(global string, args ...int64) (int64, error) {
	s.m.Fuel = s.pol.WatchdogFuel
	v, err := s.m.Run(global, args...)
	if err != nil {
		s.HandleFault(err)
	}
	return v, err
}

// HandleFault attributes err to a unit instance and applies the policy.
// CallGlobal invokes it automatically; expose it so serving loops that
// drive the machine directly (or observe lifecycle errors out-of-band)
// can feed faults in.
func (s *Supervisor) HandleFault(err error) {
	st := s.stateFor(attribute(err, s.m))
	now := s.clk.Now()
	st.brownout = false
	st.lastErr = err
	st.total++
	st.failures = append(st.failures, now)
	s.prune(st, now)
	s.event(st, "fault", err.Error())
	if st.state == Dead {
		return
	}

	unitName := ""
	if st.active != nil {
		unitName = st.active.Unit.Name
	}
	k := len(st.failures)
	if k <= s.pol.restartsFor(unitName) {
		s.backoff(st, k, unitName)
		if s.restart(st) {
			return
		}
	}
	// Budget exhausted (or the restart itself failed): degrade to the
	// declared fallback, else escalate scope by scope.
	if st.active != nil && st.active.Unit.Fallback != "" {
		if s.swap(st) {
			return
		}
	}
	s.escalate(st)
}

// Report enumerates every static unit instance's supervision state,
// sorted by instance path.
func (s *Supervisor) Report() []InstanceStatus {
	var out []InstanceStatus
	for _, inst := range s.res.Program.Instances {
		row := InstanceStatus{Path: inst.Path, Unit: inst.Unit.Name, State: Healthy}
		if st, ok := s.states[inst.Path]; ok {
			row.State = st.state
			row.Failures = st.total
			row.Restarts = st.restarts
			row.Swaps = st.swaps
			if st.lu != nil {
				row.ActiveModule = st.lu.Name()
			}
			if st.lastErr != nil {
				row.LastError = st.lastErr.Error()
			}
		}
		if s.obs != nil {
			row.Metrics = s.obs.Snapshot(inst.Path)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Healthy reports whether no instance is dead and none is mid-backoff:
// every instance serves, natively or through its fallback.
func (s *Supervisor) Healthy() bool {
	for _, st := range s.states {
		if st.state == Dead || st.state == BackingOff {
			return false
		}
	}
	return true
}

// Events returns the supervisor's decision log.
func (s *Supervisor) Events() []Event { return s.events }

// Recoveries returns the fault-to-restored-service measurements.
func (s *Supervisor) Recoveries() []RecoveryRecord { return s.recov }

// attribute maps a failure to the owning instance path, preferring the
// structured attribution the machine and build layers provide.
func attribute(err error, m *machine.M) string {
	var trap *machine.Trap
	if errors.As(err, &trap) && trap.Unit != "" {
		return trap.Unit
	}
	var lerr *build.LifecycleError
	if errors.As(err, &lerr) && lerr.Unit != "" {
		return lerr.Unit
	}
	return ""
}

// stateFor resolves an attribution name to its instance state, creating
// one on first sight. Attribution to a fallback module resolves to the
// original instance it replaced (the alias map).
func (s *Supervisor) stateFor(path string) *instState {
	if st, ok := s.alias[path]; ok {
		return st
	}
	if st, ok := s.states[path]; ok {
		return st
	}
	st := &instState{path: path, state: Healthy, escScope: path}
	if inst := s.res.InstanceByPath(s.m, path); inst != nil {
		st.inst, st.active = inst, inst
	} else if path != "" {
		// Attributed to something the build layer does not know (an
		// ambient symbol, a module loaded behind our back): supervise it
		// as a program-level fault.
		st.path, st.escScope = "", ""
		if prev, ok := s.states[""]; ok {
			s.alias[path] = prev
			return prev
		}
	}
	s.states[st.path] = st
	if path != st.path {
		s.alias[path] = st
	}
	return st
}

func (s *Supervisor) prune(st *instState, now time.Time) {
	if s.pol.Window <= 0 {
		return
	}
	keep := st.failures[:0]
	for _, t := range st.failures {
		if now.Sub(t) <= s.pol.Window {
			keep = append(keep, t)
		}
	}
	st.failures = keep
}

// backoff sleeps min(base·2^(k−1), max) plus seeded jitter in
// [0, backoff/4], marking the instance backing-off for the duration.
func (s *Supervisor) backoff(st *instState, k int, unitName string) {
	base, max := s.pol.backoffFor(unitName)
	if base <= 0 {
		return
	}
	d := base
	for i := 1; i < k; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	if j := int64(d / 4); j > 0 {
		d += time.Duration(s.rng.Int63n(j + 1))
	}
	st.state = BackingOff
	s.event(st, "backoff", d.String())
	s.clk.Sleep(d)
}

// restart re-initializes the active implementation; true on success.
func (s *Supervisor) restart(st *instState) bool {
	start := s.clk.Now()
	var err error
	if st.inst == nil {
		err = s.res.RestartScope(s.m, "")
	} else {
		err = s.res.RestartInstance(s.m, st.active)
	}
	if err != nil {
		st.lastErr = err
		s.event(st, "restart", "failed: "+err.Error())
		return false
	}
	st.restarts++
	if st.lu != nil {
		st.state = Degraded
	} else {
		st.state = Healthy
	}
	s.event(st, "restart", "ok")
	s.recov = append(s.recov, RecoveryRecord{
		Instance: st.path, Mode: "restart", Latency: s.clk.Now().Sub(start),
	})
	return true
}

// swap replaces the active implementation with its declared fallback
// via runtime interposition; true on success.
func (s *Supervisor) swap(st *instState) bool {
	start := s.clk.Now()
	lu, err := s.res.SwapFallback(s.m, st.active)
	if err != nil {
		st.lastErr = err
		s.event(st, "swap", "failed: "+err.Error())
		return false
	}
	prev := st.lu
	st.lu = lu
	st.active = lu.Instance
	st.state = Degraded
	st.swaps++
	st.failures = st.failures[:0]
	s.alias[lu.Name()] = st
	s.event(st, "swap", "now serving via "+lu.Name())
	if prev != nil {
		if rerr := prev.ReleaseSuperseded(s.m); rerr != nil {
			s.event(st, "release", "failed: "+rerr.Error())
		} else {
			s.event(st, "release", prev.Name())
		}
	}
	s.recov = append(s.recov, RecoveryRecord{
		Instance: st.path, Mode: "swap", Latency: s.clk.Now().Sub(start),
	})
	return true
}

// escalate restarts ever-wider enclosing scopes; a root-scope failure
// (or running out of scopes) marks the instance dead.
func (s *Supervisor) escalate(st *instState) {
	start := s.clk.Now()
	scope := st.escScope
	for {
		if scope == "" {
			s.die(st)
			return
		}
		scope = parentScope(scope)
		s.event(st, "escalate", "restarting scope "+scopeName(scope))
		if err := s.res.RestartScope(s.m, scope); err != nil {
			st.lastErr = err
			s.event(st, "escalate", "scope "+scopeName(scope)+" failed: "+err.Error())
			if scope == "" {
				s.die(st)
				return
			}
			continue
		}
		break
	}
	st.escScope = scope
	// The scope restart wiped the state of everything inside it: clear
	// those instances' failure windows and mark them freshly healthy.
	for _, other := range s.states {
		if other.inst == nil || !sched.ScopeContains(scope, other.inst.Path) {
			continue
		}
		other.failures = other.failures[:0]
		if other.state != Dead && other.state != Degraded {
			other.state = Healthy
		}
	}
	st.failures = st.failures[:0]
	if st.state != Degraded {
		st.state = Healthy
	}
	s.recov = append(s.recov, RecoveryRecord{
		Instance: st.path, Mode: "escalate", Latency: s.clk.Now().Sub(start),
	})
}

func (s *Supervisor) die(st *instState) {
	st.state = Dead
	s.event(st, "dead", "every remedy exhausted")
}

func (s *Supervisor) event(st *instState, action, detail string) {
	s.events = append(s.events, Event{
		At: s.clk.Now(), Instance: scopeName(st.path), Action: action, Detail: detail,
	})
}

func parentScope(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[:i]
	}
	return ""
}

func scopeName(scope string) string {
	if scope == "" {
		return "<program>"
	}
	return scope
}
