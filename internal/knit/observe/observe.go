// Package observe is the component-attributed observability layer:
// runtime metrics, call tracing, and profiling hooks that see the same
// unit-instance boundaries the Knit compiler saw at link time.
//
// The paper's premise (§2.3, §6) is that component boundaries survive
// into the built artifact; this package makes them visible at runtime.
// A Collector attaches to a machine.M through the PostCall hook and
// attributes every simulated call — and every trap, initializer,
// finalizer, restart, and fallback swap reported by the build and
// supervision layers — to the unit instance owning it, via the
// link-time symbol owner table (machine.Image.SymbolOwner). Per
// instance it maintains call and cycle counters, a log2 histogram of
// per-call fuel, and per-TrapKind fault counters; an optional
// ring-buffer Tracer records recent call spans for JSON-lines export.
//
// The design constraint is the hot path: a detached collector costs one
// nil check per call inside the machine, and an attached one performs
// no heap allocation on the no-fault path (map reads, array increments,
// and ring-slot writes only). Its wall cost per packet is perfbench's
// observe.ns_per_packet; clack.TestTable1Shape checks that attaching it
// leaves the simulated machine's counters unchanged.
package observe

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"knit/internal/machine"
)

// HistBuckets is the number of log2 buckets in the per-call cycle
// histogram: bucket i counts calls that consumed [2^i, 2^(i+1)) cycles
// (bucket 0 also absorbs zero-cycle calls, the last bucket absorbs the
// tail).
const HistBuckets = 24

// InstanceMetrics is one unit instance's runtime ledger. All counters
// are attributed through the link-time symbol owner table; the empty
// Path collects calls into symbols no instance owns (ambient symbols,
// hand-loaded modules).
type InstanceMetrics struct {
	Path string // unit-instance path, e.g. "ClackRouter/Classifier#3"

	Calls  uint64 // completed simulated calls into the instance's functions
	Cycles int64  // self cycles: fuel consumed by the instance's own code, callees excluded
	// Hist is the log2 histogram of inclusive per-call cycles (the
	// CallInfo fuel delta): Hist[i] counts calls in [2^i, 2^(i+1)).
	Hist [HistBuckets]uint64
	// Traps counts faults raised by the instance's code, by kind. Sized
	// with machine.NumTrapKinds so a new trap kind without a counter is
	// caught by the exhaustiveness test, not silently dropped.
	Traps [machine.NumTrapKinds]uint64

	// Lifecycle events, fed by the build layer's Observer hook.
	Inits    uint64 // initializer steps run (including re-runs on restart)
	Finis    uint64 // finalizer steps run (including rollback unwinds)
	Restarts uint64 // supervisor restarts of this instance
	Swaps    uint64 // fallback swaps replacing this instance
	Unloads  uint64 // dynamic unloads of this instance
}

// TrapTotal is the instance's fault count across all kinds.
func (im *InstanceMetrics) TrapTotal() uint64 {
	var n uint64
	for _, c := range im.Traps {
		n += c
	}
	return n
}

// ApproxPercentile estimates the p-th percentile (0 < p <= 100) of the
// per-call cycle distribution from the log2 histogram, returning the
// upper bound of the bucket containing it (0 when no calls were seen).
func (im *InstanceMetrics) ApproxPercentile(p float64) int64 {
	return histPercentile(&im.Hist, im.Calls, p)
}

// histBucket maps an inclusive per-call cycle count to its log2 bucket.
func histBucket(cycles int64) int {
	if cycles <= 1 {
		return 0
	}
	b := bits.Len64(uint64(cycles)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Collector attributes machine activity to unit instances. Attach one
// per machine; it is not safe for concurrent use (drive it from the
// machine's single execution loop, as the supervisor does).
type Collector struct {
	m     *machine.M
	prev  func(machine.CallInfo) // chained PostCall hook, if any
	inst  map[string]*InstanceMetrics
	bySym map[string]*InstanceMetrics // symbol -> owner metrics, memoized
	// childCycles[d] accumulates the inclusive cycles of completed calls
	// at depth d, so a parent frame at depth d-1 can compute its self
	// cycles as inclusive minus childCycles[d]. Fixed-size: the machine
	// bounds nesting by MaxCallDepth.
	childCycles [machine.MaxCallDepth + 2]int64
	lastErr     error // last counted trap; propagating frames repeat the value
	tracer      *Tracer
}

// Attach installs a Collector on m, chaining any PostCall hook already
// present (the chained hook fires after the collector).
func Attach(m *machine.M) *Collector {
	c := &Collector{
		m:     m,
		prev:  m.PostCall,
		inst:  map[string]*InstanceMetrics{},
		bySym: map[string]*InstanceMetrics{},
	}
	m.PostCall = c.postCall
	return c
}

// Detach removes the collector from its machine, restoring whatever
// PostCall hook was installed before Attach. Collected metrics remain
// readable.
func (c *Collector) Detach() {
	c.m.PostCall = c.prev
}

// Trace attaches a ring-buffer call tracer retaining the most recent
// capacity spans (minimum 16). It returns the tracer for export; the
// ring is preallocated so recording stays off the heap.
func (c *Collector) Trace(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	c.tracer = &Tracer{buf: make([]Span, capacity)}
	return c.tracer
}

func (c *Collector) postCall(ci machine.CallInfo) {
	im := c.bySym[ci.Fn]
	if im == nil {
		im = c.metricsFor(c.m.OwnerOf(ci.Fn))
		c.bySym[ci.Fn] = im
	}
	im.Calls++
	im.Hist[histBucket(ci.Cycles)]++
	d := ci.Depth
	im.Cycles += ci.Cycles - c.childCycles[d+1]
	c.childCycles[d+1] = 0
	c.childCycles[d] += ci.Cycles
	if d == 0 {
		c.childCycles[0] = 0 // nothing aggregates above a top-level run
	}
	if ci.Err != nil && ci.Err != c.lastErr {
		c.lastErr = ci.Err
		c.countTrap(ci, im)
	}
	if c.tracer != nil {
		c.tracer.record(ci, im.Path)
	}
	if c.prev != nil {
		c.prev(ci)
	}
}

// countTrap attributes one fault. The innermost erroring frame is the
// first to deliver a given error value (errors propagate unchanged), so
// this runs once per fault, on the frame where it was raised.
func (c *Collector) countTrap(ci machine.CallInfo, im *InstanceMetrics) {
	kind := machine.TrapGeneric
	target := im
	var trap *machine.Trap
	if errors.As(ci.Err, &trap) {
		if int(trap.Kind) >= 0 && int(trap.Kind) < machine.NumTrapKinds {
			kind = trap.Kind
		}
		// Prefer the trap's own attribution: an injected trap names its
		// victim, and a trap raised below a hook boundary names the true
		// faulting function.
		if trap.Unit != "" {
			target = c.metricsFor(trap.Unit)
		} else if trap.Func != "" && trap.Func != ci.Fn {
			if owner := c.m.OwnerOf(trap.Func); owner != "" {
				target = c.metricsFor(owner)
			}
		}
	}
	target.Traps[kind]++
}

// metricsFor returns (creating on first sight) the ledger for one
// instance path.
func (c *Collector) metricsFor(path string) *InstanceMetrics {
	im, ok := c.inst[path]
	if !ok {
		im = &InstanceMetrics{Path: path}
		c.inst[path] = im
	}
	return im
}

// LifecycleEvent records a build-layer lifecycle step against its unit
// instance. It implements the build package's Observer interface; op is
// one of "init", "fini", "restart", "swap", "unload" (unknown ops are
// ignored so the build layer can grow events without breaking older
// collectors).
func (c *Collector) LifecycleEvent(instance, op string) {
	im := c.metricsFor(instance)
	switch op {
	case "init":
		im.Inits++
	case "fini":
		im.Finis++
	case "restart":
		im.Restarts++
	case "swap":
		im.Swaps++
	case "unload":
		im.Unloads++
	}
}

// Snapshot returns a copy of one instance's metrics, or nil when the
// collector has never attributed anything to that path.
func (c *Collector) Snapshot(path string) *InstanceMetrics {
	im, ok := c.inst[path]
	if !ok {
		return nil
	}
	cp := *im
	return &cp
}

// Report is a point-in-time snapshot of every instance ledger.
type Report struct {
	Instances []InstanceMetrics // sorted by path; "" (unattributed) first
}

// Report snapshots the collector. The returned data is detached: later
// machine activity does not mutate it.
func (c *Collector) Report() *Report {
	r := &Report{Instances: make([]InstanceMetrics, 0, len(c.inst))}
	for _, im := range c.inst {
		r.Instances = append(r.Instances, *im)
	}
	sort.Slice(r.Instances, func(i, j int) bool {
		return r.Instances[i].Path < r.Instances[j].Path
	})
	return r
}

// TotalCalls sums attributed calls across instances.
func (r *Report) TotalCalls() uint64 {
	var n uint64
	for i := range r.Instances {
		n += r.Instances[i].Calls
	}
	return n
}

// Format renders the report as the aligned table the -metrics flags
// print: one row per instance with calls, self cycles, approximate
// per-call percentiles, faults by kind, and lifecycle counters.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "%-44s %10s %12s %8s %8s  %s\n",
		"instance", "calls", "self-cycles", "p50", "p99", "faults / lifecycle")
	for i := range r.Instances {
		im := &r.Instances[i]
		path := im.Path
		if path == "" {
			path = "<unattributed>"
		}
		fmt.Fprintf(w, "%-44s %10d %12d %8d %8d  %s\n",
			path, im.Calls, im.Cycles,
			im.ApproxPercentile(50), im.ApproxPercentile(99), im.eventSummary())
	}
}

// eventSummary compacts the fault and lifecycle counters into one
// human-readable cell, omitting zero entries.
func (im *InstanceMetrics) eventSummary() string {
	out := ""
	add := func(label string, n uint64) {
		if n == 0 {
			return
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", label, n)
	}
	for k := 0; k < machine.NumTrapKinds; k++ {
		if im.Traps[k] > 0 {
			add("trap:"+machine.TrapKind(k).String(), im.Traps[k])
		}
	}
	add("inits", im.Inits)
	add("finis", im.Finis)
	add("restarts", im.Restarts)
	add("swaps", im.Swaps)
	add("unloads", im.Unloads)
	if out == "" {
		out = "-"
	}
	return out
}
