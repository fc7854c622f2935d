package click

import (
	"math"
	"testing"

	"knit/internal/clack"
	"knit/internal/machine"
	"knit/internal/obj"
)

// countIndirect counts static indirect-call sites in an image.
func countIndirect(img *machine.Image) int {
	n := 0
	for _, fn := range img.File.Funcs {
		for i := range fn.Code {
			if fn.Code[i].Op == obj.OpCallInd {
				n++
			}
		}
	}
	return n
}

func TestClickBaseForwards(t *testing.T) {
	meas, err := Measure(Options{}, clack.DefaultTraffic(200))
	if err != nil {
		t.Fatal(err)
	}
	if meas.Packets != 200 {
		t.Errorf("windows = %d, want 200", meas.Packets)
	}
	if meas.Forwarded == 0 || meas.Dropped == 0 {
		t.Errorf("forwarded=%d dropped=%d", meas.Forwarded, meas.Dropped)
	}
}

func TestClickMatchesClackBehavior(t *testing.T) {
	spec := clack.DefaultTraffic(300)
	clackRes, err := clack.MeasureVariant(clack.Variant{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {FastClassifier: true},
		{FastClassifier: true, Specialize: true}, All()} {
		meas, err := Measure(opts, spec)
		if err != nil {
			t.Fatalf("%s: %v", opts, err)
		}
		if meas.Forwarded != clackRes.Forwarded || meas.Dropped != clackRes.Dropped ||
			meas.Stats.Tx[0] != clackRes.Stats.Tx[0] ||
			meas.Stats.Tx[1] != clackRes.Stats.Tx[1] ||
			meas.Stats.TxTTLOK != clackRes.Stats.TxTTLOK {
			t.Errorf("click %s stats %+v differ from clack %+v", opts, meas.Stats, clackRes.Stats)
		}
	}
}

func TestXFormFusesElements(t *testing.T) {
	g0, err := clack.ParseConfig(clack.StandardRouterConfig)
	if err != nil {
		t.Fatal(err)
	}
	g := graphFromClack(g0)
	before := len(g)
	g = xform(g)
	if len(g) >= before {
		t.Errorf("xform did not shrink the graph: %d -> %d", before, len(g))
	}
	classes := map[string]int{}
	for _, e := range g {
		classes[e.class]++
	}
	if classes["DecFix"] != 2 {
		t.Errorf("DecFix count = %d, want 2", classes["DecFix"])
	}
	if classes["QCT"] != 2 {
		t.Errorf("QCT count = %d, want 2", classes["QCT"])
	}
	if classes["FixIPChecksum"] != 0 || classes["Counter"] != 0 || classes["ToDevice"] != 0 {
		t.Errorf("fused classes remain: %v", classes)
	}
}

// TestTable2Shape reproduces Table 2: the optimized Click router is
// roughly twice as fast as the unoptimized one (the paper: 2486 -> 1146
// cycles, a 54% improvement), and the unoptimized Click router is
// slightly slower than the Clack base (the paper: ~3%). Both builds'
// cycle and i-fetch stall totals over their 2000 measured windows and
// their text bytes are pinned exactly; Click runs on the interpreter
// only.
func TestTable2Shape(t *testing.T) {
	spec := clack.DefaultTraffic(2000)
	measure := func(opts Options, cycles, stalls, text int64) *Measurement {
		t.Helper()
		m, err := Measure(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		w := float64(m.Packets)
		c, s := int64(math.Round(m.CyclesPerPk*w)), int64(math.Round(m.StallsPerPk*w))
		if c != cycles || s != stalls || m.Packets != 2000 || m.TextBytes != text {
			t.Errorf("%s: %d cycles, %d stalls, %d windows, %d text bytes; want %d, %d, 2000, %d",
				opts, c, s, m.Packets, m.TextBytes, cycles, stalls, text)
		}
		return m
	}
	base := measure(Options{}, 1237456, 323098, 15580)
	optim := measure(All(), 666734, 132494, 20652)
	clackBase, err := clack.MeasureVariant(clack.Variant{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	clackBoth, err := clack.MeasureVariant(clack.Variant{HandOptimized: true, Flattened: true}, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Click base is slower than Clack base (indirect dispatch), but in
	// the same ballpark.
	if base.CyclesPerPk <= clackBase.CyclesPerPk {
		t.Errorf("click base (%.0f) should be slower than clack base (%.0f)",
			base.CyclesPerPk, clackBase.CyclesPerPk)
	}
	if base.CyclesPerPk > clackBase.CyclesPerPk*1.35 {
		t.Errorf("click base (%.0f) should be within ~a third of clack base (%.0f)",
			base.CyclesPerPk, clackBase.CyclesPerPk)
	}
	// The three optimizations together cut cycles substantially (paper:
	// 54%); require at least a third.
	improvement := 1 - optim.CyclesPerPk/base.CyclesPerPk
	if improvement < 0.33 {
		t.Errorf("click optimizations improve only %.0f%%, want >= 33%%", 100*improvement)
	}
	// Optimized Click lands at or below Clack's best (the paper's
	// optimized Click beats Clack hand+flat).
	if optim.CyclesPerPk > clackBoth.CyclesPerPk*1.15 {
		t.Errorf("optimized click (%.0f) should be near clack hand+flat (%.0f)",
			optim.CyclesPerPk, clackBoth.CyclesPerPk)
	}
}

func TestIndirectCallsOnlyInBase(t *testing.T) {
	imgBase, err := Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	imgSpec, err := Build(Options{Specialize: true, FastClassifier: true})
	if err != nil {
		t.Fatal(err)
	}
	indBase := countIndirect(imgBase)
	indSpec := countIndirect(imgSpec)
	if indBase == 0 {
		t.Error("base click should contain indirect calls")
	}
	if indSpec != 0 {
		t.Errorf("specialized click contains %d indirect calls, want 0", indSpec)
	}
}
