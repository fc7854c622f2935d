package observe

import (
	"math/rand"
	"reflect"
	"testing"

	"knit/internal/machine"
)

// The merge property: splitting one attributed event stream across K
// collectors and merging their reports gives exactly the report a single
// collector produces on the interleaved stream. Splitting happens at
// top-level-call granularity (a complete call tree is one unit — the
// same granularity a fleet shards packets at), because the collector's
// depth bookkeeping spans one tree.

// synthCollector attaches a collector to a machine whose image exists
// only to answer OwnerOf; no code runs — events are fed to postCall
// directly, the way the machine's exec loop would.
func synthCollector(t *testing.T, owners map[string]string) *Collector {
	t.Helper()
	m := ownedMachine(t)
	m.Img.SymbolOwner = owners
	return Attach(m)
}

// callTree is one top-level call and its nested completions, emitted
// post-order (children complete before the parent) with machine-true
// inclusive cycles and error propagation.
type callTree struct {
	events []machine.CallInfo
}

// genTree builds a random call tree rooted at depth 0. Errors originate
// at leaves (a fresh *machine.Trap per tree, as in the real machine,
// where the innermost frame mints the error value and every enclosing
// frame repeats it). A symbol's function index is its position in syms.
func genTree(rng *rand.Rand, syms []string) callTree {
	var tr callTree
	var build func(depth int) (inclusive int64, err error)
	build = func(depth int) (int64, error) {
		index := rng.Intn(len(syms))
		sym := syms[index]
		var childSum int64
		var propagated error
		if depth < 4 {
			for n := rng.Intn(3); n > 0; n-- {
				inc, cerr := build(depth + 1)
				childSum += inc
				if cerr != nil {
					propagated = cerr
				}
			}
		}
		if propagated == nil && depth > 0 && rng.Intn(12) == 0 {
			propagated = &machine.Trap{Kind: machine.TrapKind(rng.Intn(machine.NumTrapKinds)), Func: sym, Msg: "synthetic"}
		}
		inclusive := childSum + 1 + int64(rng.Intn(5000))
		tr.events = append(tr.events, machine.CallInfo{
			Fn: sym, Index: index, Depth: depth, Cycles: inclusive, Err: propagated,
		})
		return inclusive, propagated
	}
	build(0)
	return tr
}

func feed(c *Collector, trees []callTree) {
	for _, tr := range trees {
		for _, ev := range tr.events {
			c.postCall(ev)
		}
	}
}

func TestMergeEqualsInterleavedStream(t *testing.T) {
	// Several symbols per owner (merging folds symbol ledgers into
	// instance ledgers), plus one unowned symbol for the "" path.
	owners := map[string]string{
		"rx_poll": "Fleet/FromDevice#0",
		"rx_cls":  "Fleet/Classifier#1",
		"rx_arp":  "Fleet/Classifier#1",
		"tx_emit": "Fleet/ToDevice#2",
	}
	syms := []string{"rx_poll", "rx_cls", "rx_arp", "tx_emit", "ambient_tick"}

	rng := rand.New(rand.NewSource(7))
	var trees []callTree
	for i := 0; i < 400; i++ {
		trees = append(trees, genTree(rng, syms))
	}

	ref := synthCollector(t, owners)
	feed(ref, trees)

	const shards = 4
	parts := make([]*Collector, shards)
	for i := range parts {
		parts[i] = synthCollector(t, owners)
	}
	// Deterministic interleave: tree i goes to shard i mod K. Equality
	// must hold for any split; mod is one instance of "any".
	for i, tr := range trees {
		feed(parts[i%shards], []callTree{tr})
	}

	var reports []*Report
	for _, p := range parts {
		reports = append(reports, p.Report())
	}
	merged := MergeReports(reports...)
	want := ref.Report()
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged report != interleaved-stream report\nmerged: %+v\nwant:   %+v", merged, want)
	}

	// Percentiles recompute over the merged histograms; spot-check they
	// match the reference at several ranks.
	for i := range want.Instances {
		w, g := &want.Instances[i], &merged.Instances[i]
		for _, p := range []float64{1, 25, 50, 90, 99, 100} {
			if w.ApproxPercentile(p) != g.ApproxPercentile(p) {
				t.Errorf("instance %q p%g = %d, want %d", g.Path, p, g.ApproxPercentile(p), w.ApproxPercentile(p))
			}
		}
	}

	// Collector.Merge is the in-place variant of the same fold.
	acc := synthCollector(t, owners)
	for _, p := range parts {
		acc.Merge(p)
	}
	if got := acc.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Collector.Merge report != interleaved-stream report\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestMergeReportsDisjointAndNil pins the edge cases: disjoint instance
// sets concatenate, nil reports are skipped, inputs are not mutated.
func TestMergeReportsDisjointAndNil(t *testing.T) {
	a := &Report{Instances: []InstanceMetrics{{Path: "A", Calls: 1, Cycles: 10}}}
	b := &Report{Instances: []InstanceMetrics{{Path: "B", Calls: 2, Restarts: 3}}}
	got := MergeReports(a, nil, b)
	want := &Report{Instances: []InstanceMetrics{
		{Path: "A", Calls: 1, Cycles: 10},
		{Path: "B", Calls: 2, Restarts: 3},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeReports = %+v, want %+v", got, want)
	}
	got.Instances[0].Calls = 99
	if a.Instances[0].Calls != 1 {
		t.Fatal("MergeReports output aliases its input")
	}
}

// TestInstanceMetricsMergeSums checks the ledger fold field by field,
// including the trap and histogram arrays.
func TestInstanceMetricsMergeSums(t *testing.T) {
	a := InstanceMetrics{Path: "X", Calls: 3, Cycles: 100, Inits: 1, Finis: 2, Restarts: 3, Swaps: 4, Unloads: 5}
	a.Hist[0], a.Hist[5] = 2, 1
	a.Traps[machine.TrapGeneric] = 2
	b := InstanceMetrics{Path: "X", Calls: 5, Cycles: 50, Inits: 10, Finis: 20, Restarts: 30, Swaps: 40, Unloads: 50}
	b.Hist[5], b.Hist[HistBuckets-1] = 4, 1
	b.Traps[machine.TrapGeneric] = 1
	a.Merge(&b)
	if a.Calls != 8 || a.Cycles != 150 || a.Hist[0] != 2 || a.Hist[5] != 5 || a.Hist[HistBuckets-1] != 1 {
		t.Errorf("counter sums wrong: %+v", a)
	}
	if a.Traps[machine.TrapGeneric] != 3 {
		t.Errorf("Traps[generic] = %d, want 3", a.Traps[machine.TrapGeneric])
	}
	if a.Inits != 11 || a.Finis != 22 || a.Restarts != 33 || a.Swaps != 44 || a.Unloads != 55 {
		t.Errorf("lifecycle sums wrong: %+v", a)
	}
}
