package build

import (
	"fmt"
	"strings"
	"time"
)

// Timings records wall time per pipeline phase — the repo's first
// observability layer, reproducing the paper's §6 build-time breakdown.
// The phases split into "Knit proper" (the component system's own
// analyses: unit parsing, linking, constraint checking, scheduling,
// flattening) and the substrate's compiler/linker/loader work.
type Timings struct {
	Parse     time.Duration // unit-definition files -> ASTs
	Elaborate time.Duration // linking-graph elaboration (includes cmini parsing)
	Check     time.Duration // constraint fixpoint (zero when Check is off)
	Schedule  time.Duration // initializer/finalizer ordering
	Flatten   time.Duration // cross-component source merge (zero when off or cached)
	Compile   time.Duration // instance renaming, cmini -> IR, optimization passes, all on cache misses (less the merge, which runs on a compile worker)
	Link      time.Duration // object merge into the image
	Load      time.Duration // data/text placement, address resolution

	// CompileJobs counts the translation units the compile phase
	// processed (per-file units plus a flattened region, if any);
	// CacheHits says how many of them were served from the build's
	// cache instead of being compiled. Both are zero when no C sources
	// exist (an all-assembly program).
	CompileJobs int
	CacheHits   int
}

// Add accumulates u into t, phase by phase — for averaging repeated
// builds in benchmarks and reports.
func (t *Timings) Add(u Timings) {
	t.Parse += u.Parse
	t.Elaborate += u.Elaborate
	t.Check += u.Check
	t.Schedule += u.Schedule
	t.Flatten += u.Flatten
	t.Compile += u.Compile
	t.Link += u.Link
	t.Load += u.Load
	t.CompileJobs += u.CompileJobs
	t.CacheHits += u.CacheHits
}

// KnitProper is the time spent in Knit's own analyses — the paper's
// "Knit-proper" number, which its constraint checking more than
// doubled.
func (t Timings) KnitProper() time.Duration {
	return t.Parse + t.Elaborate + t.Check + t.Schedule + t.Flatten
}

// CompilerAndLoader is the substrate time: compiling, linking, and
// loading — the >95% share of the paper's builds.
func (t Timings) CompilerAndLoader() time.Duration {
	return t.Compile + t.Link + t.Load
}

// Total is the whole pipeline's wall time.
func (t Timings) Total() time.Duration {
	return t.KnitProper() + t.CompilerAndLoader()
}

// Phase is one named entry of the breakdown, for reporting.
type Phase struct {
	Name string
	D    time.Duration
}

// Phases returns the breakdown in pipeline order.
func (t Timings) Phases() []Phase {
	return []Phase{
		{"parse", t.Parse},
		{"elaborate", t.Elaborate},
		{"check", t.Check},
		{"schedule", t.Schedule},
		{"flatten", t.Flatten},
		{"compile", t.Compile},
		{"link", t.Link},
		{"load", t.Load},
	}
}

// String renders the per-phase breakdown with each phase's share of the
// total, e.g. "parse 12µs (0.4%) | ... | compile 2.1ms (88.3%) | ...".
func (t Timings) String() string {
	total := t.Total()
	var b strings.Builder
	for i, p := range t.Phases() {
		if i > 0 {
			b.WriteString(" | ")
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(p.D) / float64(total)
		}
		fmt.Fprintf(&b, "%s %v (%.1f%%)", p.Name, p.D.Round(time.Microsecond), pct)
	}
	if t.CacheHits > 0 {
		fmt.Fprintf(&b, " | cache %d/%d hits", t.CacheHits, t.CompileJobs)
	}
	return b.String()
}
