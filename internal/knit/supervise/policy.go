package supervise

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"knit/internal/diag"
)

// Policy is the declarative restart policy a supervisor applies to
// every unit instance, with optional per-unit overrides.
type Policy struct {
	// MaxRestarts is the failure budget: how many attributed failures
	// within Window are answered with a backoff-and-restart before the
	// supervisor escalates (fallback swap, then scope restart).
	MaxRestarts int
	// Window bounds the failure budget in time: only failures within
	// the trailing window count against the budget. Zero means the
	// budget spans the instance's lifetime.
	Window time.Duration
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// before the k-th restart: min(BaseBackoff·2^(k−1), MaxBackoff),
	// plus jitter. Zero BaseBackoff disables backoff sleeps.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the deterministic jitter source. The same seed
	// and fault sequence produce the same backoff schedule.
	JitterSeed int64
	// WatchdogFuel bounds each supervised call's executed instructions
	// (machine.M.Fuel): a wedged component becomes an attributed
	// budget-exhausted trap instead of a hang. Zero disables it.
	WatchdogFuel int64
	// Units holds per-unit overrides, keyed by unit name.
	Units map[string]UnitOverride
}

// UnitOverride overrides chosen policy fields for one unit. Nil fields
// inherit the global policy.
type UnitOverride struct {
	MaxRestarts *int
	BaseBackoff *time.Duration
	MaxBackoff  *time.Duration
}

// Default returns the stock policy: two restarts, lifetime window,
// 10ms–1s exponential backoff, jitter seed 1, no watchdog.
func Default() *Policy {
	return &Policy{
		MaxRestarts: 2,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  time.Second,
		JitterSeed:  1,
	}
}

// ForShard derives an independent copy of the policy for one fleet
// shard: same budgets and backoff shape, but a decorrelated JitterSeed
// so shards that fail together do not back off in lockstep and hammer
// the respawn path as one thundering herd. Supervisors are per-machine
// and not concurrency-safe, so every shard needs its own Policy value;
// the Units override map is deep-copied for the same reason.
func (p *Policy) ForShard(shard int) *Policy {
	cp := *p
	// Weyl-sequence increment (golden-ratio constant): consecutive shard
	// IDs land far apart in seed space.
	cp.JitterSeed = p.JitterSeed + int64(shard+1)*-0x61c8864680b583eb
	if p.Units != nil {
		cp.Units = make(map[string]UnitOverride, len(p.Units))
		for k, v := range p.Units {
			cp.Units[k] = v
		}
	}
	return &cp
}

// ForCanary derives the trial policy a canary shard runs under while a
// reconfiguration is being judged: one restart, no backoff sleeps, no
// per-unit leniency. A regression introduced by the new wiring should
// surface in the SLO window as traps and dead components, not be papered
// over by patient restart budgets that out-wait the trial.
func (p *Policy) ForCanary() *Policy {
	return &Policy{
		MaxRestarts:  1,
		JitterSeed:   p.JitterSeed,
		WatchdogFuel: p.WatchdogFuel,
	}
}

func (p *Policy) restartsFor(unit string) int {
	if o, ok := p.Units[unit]; ok && o.MaxRestarts != nil {
		return *o.MaxRestarts
	}
	return p.MaxRestarts
}

func (p *Policy) backoffFor(unit string) (base, max time.Duration) {
	base, max = p.BaseBackoff, p.MaxBackoff
	if o, ok := p.Units[unit]; ok {
		if o.BaseBackoff != nil {
			base = *o.BaseBackoff
		}
		if o.MaxBackoff != nil {
			max = *o.MaxBackoff
		}
	}
	return base, max
}

// Parse reads the line-based policy file format:
//
//	# global settings
//	max_restarts = 2
//	window = 30s
//	base_backoff = 10ms
//	max_backoff = 1s
//	jitter_seed = 42
//	watchdog_fuel = 1000000
//
//	[unit Classifier]
//	max_restarts = 1
//	base_backoff = 5ms
//
// Unknown keys are errors; '#' starts a comment; blank lines are
// ignored. A "[unit NAME]" header scopes the keys after it to that
// unit (only max_restarts, base_backoff, and max_backoff may be
// overridden per unit). Errors are *diag.Error values positioned at the
// line they are about, in the file named file.
func Parse(file, text string) (*Policy, error) {
	p := Default()
	var unit string                 // "" = global section
	global := map[string]diag.Pos{} // where each global key was set
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		at := diag.Pos{File: file, Line: lineNo + 1, Col: len(raw) - len(strings.TrimLeftFunc(raw, unicode.IsSpace)) + 1}
		fail := func(format string, args ...any) error { return diag.Errorf(at, format, args...) }
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fail("unterminated section header %q", line)
			}
			fields := strings.Fields(strings.Trim(line, "[]"))
			if len(fields) != 2 || fields[0] != "unit" {
				return nil, fail("section header must be [unit NAME], got %q", line)
			}
			unit = fields[1]
			if p.Units == nil {
				p.Units = map[string]UnitOverride{}
			}
			if _, dup := p.Units[unit]; dup {
				return nil, fail("duplicate section for unit %s", unit)
			}
			p.Units[unit] = UnitOverride{}
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fail("expected key = value, got %q", line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if unit == "" {
			if err := p.setGlobal(key, val); err != nil {
				return nil, &diag.Error{Pos: at, Err: err}
			}
			global[key] = at
			continue
		}
		o := p.Units[unit]
		if err := setOverride(&o, key, val); err != nil {
			return nil, fail("unit %s: %w", unit, err)
		}
		p.Units[unit] = o
	}
	if p.MaxBackoff < p.BaseBackoff {
		at, ok := global["max_backoff"]
		if !ok {
			at = global["base_backoff"]
		}
		return nil, diag.Errorf(at, "max_backoff %v < base_backoff %v", p.MaxBackoff, p.BaseBackoff)
	}
	return p, nil
}

func (p *Policy) setGlobal(key, val string) (err error) {
	switch key {
	case "max_restarts":
		p.MaxRestarts, err = count[int](key, val)
	case "window":
		p.Window, err = span(key, val)
	case "base_backoff":
		p.BaseBackoff, err = span(key, val)
	case "max_backoff":
		p.MaxBackoff, err = span(key, val)
	case "jitter_seed":
		if p.JitterSeed, err = strconv.ParseInt(val, 10, 64); err != nil {
			err = fmt.Errorf("jitter_seed must be an integer, got %q", val)
		}
	case "watchdog_fuel":
		p.WatchdogFuel, err = count[int64](key, val)
	default:
		err = fmt.Errorf("unknown key %q", key)
	}
	return err
}

func setOverride(o *UnitOverride, key, val string) error {
	switch key {
	case "max_restarts":
		n, err := count[int](key, val)
		o.MaxRestarts = &n
		return err
	case "base_backoff":
		d, err := span(key, val)
		o.BaseBackoff = &d
		return err
	case "max_backoff":
		d, err := span(key, val)
		o.MaxBackoff = &d
		return err
	}
	return fmt.Errorf("key %q cannot be set per unit", key)
}

// count parses the value of a key that takes a non-negative integer.
func count[T int | int64](key, val string) (T, error) {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil || n < 0 || int64(T(n)) != n {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", key, val)
	}
	return T(n), nil
}

// span parses the value of a key that takes a non-negative duration.
func span(key, val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("%s must be a non-negative duration, got %q", key, val)
	}
	return d, nil
}
