package clack

import (
	"math"
	"strings"
	"testing"

	"knit/internal/diag/diagtest"
	"knit/internal/knit/observe"
	"knit/internal/machine"
)

func TestParseStandardConfig(t *testing.T) {
	g, err := ParseConfig(StandardRouterConfig)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(g.Elements) != 22 {
		// 22 declared elements + 2 generated DevNo providers = 24
		// router components (checked in TestClackComponentCensus).
		t.Errorf("elements = %d, want 22", len(g.Elements))
	}
	if len(g.Sources()) != 2 {
		t.Errorf("sources = %d, want 2", len(g.Sources()))
	}
	if len(g.Counters()) != 2 {
		t.Errorf("counters = %d, want 2", len(g.Counters()))
	}
}

func TestClackComponentCensus(t *testing.T) {
	// Table 1's caption: the modular router is 24 separate components.
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatal(err)
	}
	router := 0
	for _, inst := range res.Program.Instances {
		if inst.Unit.Name != "RouterDriver" && inst.Unit.Name != "OSWork" {
			router++
		}
	}
	if router != 24 {
		for _, inst := range res.Program.Instances {
			t.Logf("instance: %s (%s)", inst.Path, inst.Unit.Name)
		}
		t.Errorf("router components = %d, want 24", router)
	}
}

func TestModularRouterForwards(t *testing.T) {
	res, err := BuildRouter(Variant{})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := RunRouter(res, DefaultTraffic(200))
	if err != nil {
		t.Fatal(err)
	}
	if meas.Packets != 200 {
		t.Errorf("measured windows = %d, want 200", meas.Packets)
	}
	if meas.Forwarded == 0 || meas.Dropped == 0 {
		t.Errorf("forwarded=%d dropped=%d; traffic should exercise both paths",
			meas.Forwarded, meas.Dropped)
	}
	if meas.Forwarded+meas.Dropped != 200 {
		t.Errorf("forwarded %d + dropped %d != 200", meas.Forwarded, meas.Dropped)
	}
	if meas.CyclesPerPk <= 0 {
		t.Error("no cycles measured")
	}
}

func TestAllVariantsAgreeOnBehavior(t *testing.T) {
	spec := DefaultTraffic(300)
	var base *Measurement
	for _, v := range []Variant{{}, {Flattened: true}, {HandOptimized: true},
		{HandOptimized: true, Flattened: true}} {
		meas, err := MeasureVariant(v, spec)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if base == nil {
			base = meas
			continue
		}
		if meas.Forwarded != base.Forwarded || meas.Dropped != base.Dropped ||
			meas.Stats.TxTTLOK != base.Stats.TxTTLOK ||
			meas.Stats.Tx[0] != base.Stats.Tx[0] || meas.Stats.Tx[1] != base.Stats.Tx[1] {
			t.Errorf("%s behaves differently from modular: %+v vs %+v",
				meas.Variant, meas.Stats, base.Stats)
		}
	}
}

// TestTable1Shape pins Table 1 on DefaultTraffic(2000) exactly: each
// variant's cycle and i-fetch stall totals over its 2000 measured
// windows and its text bytes, on the interpreter and on the compiled
// engine. The compiled engine models no fetch, so its stalls are 0 and
// its cycles are the interpreter's minus the stalls. Attaching an
// observe collector with a tracer must leave every counter unchanged.
// The paper's ordering (modular > hand > flattened >= both) is checked
// on top of the pins.
func TestTable1Shape(t *testing.T) {
	spec := DefaultTraffic(2000)
	pins := []struct {
		v                              Variant
		cycles, stalls, compiled, text int64
	}{
		{Variant{}, 1001428, 293764, 707664, 12088},
		{Variant{HandOptimized: true}, 754140, 166178, 587962, 10072},
		{Variant{Flattened: true}, 673138, 121690, 551448, 23120},
		{Variant{HandOptimized: true, Flattened: true}, 638995, 112468, 526527, 13660},
	}
	check := func(label string, m *Measurement, cycles, stalls, text int64) {
		t.Helper()
		c, s := windowTotals(m)
		if c != cycles || s != stalls || m.Packets != 2000 || m.TextBytes != text {
			t.Errorf("%s: %d cycles, %d stalls, %d windows, %d text bytes; want %d, %d, 2000, %d",
				label, c, s, m.Packets, m.TextBytes, cycles, stalls, text)
		}
	}
	var perPk []float64
	for _, p := range pins {
		res, err := BuildRouter(p.v)
		if err != nil {
			t.Fatalf("%s: %v", p.v, err)
		}
		mi, err := RunRouter(res, spec)
		if err != nil {
			t.Fatalf("%s: %v", p.v, err)
		}
		check(p.v.String()+"/interp", mi, p.cycles, p.stalls, p.text)
		perPk = append(perPk, mi.CyclesPerPk)
		if p.v == (Variant{}) {
			mo, err := RunRouterWith(res, spec, func(m *machine.M) { observe.Attach(m).Trace(1024) })
			if err != nil {
				t.Fatalf("%s with collector: %v", p.v, err)
			}
			check(p.v.String()+"/interp+observe", mo, p.cycles, p.stalls, p.text)
		}
		res.Backend = machine.BackendCompiled
		mc, err := RunRouter(res, spec)
		if err != nil {
			t.Fatalf("%s compiled: %v", p.v, err)
		}
		check(p.v.String()+"/compiled", mc, p.compiled, 0, p.text)
		if mc.Forwarded != mi.Forwarded || mc.Dropped != mi.Dropped {
			t.Errorf("%s: compiled forwarded/dropped %d/%d, interp %d/%d",
				p.v, mc.Forwarded, mc.Dropped, mi.Forwarded, mi.Dropped)
		}
	}
	if !(perPk[0] > perPk[1] && perPk[1] > perPk[2] && perPk[2] >= perPk[3]) {
		t.Errorf("cycles/packet modular %.0f, hand %.0f, flattened %.0f, both %.0f; want that order",
			perPk[0], perPk[1], perPk[2], perPk[3])
	}
}

// TestTable1RegisterTotals pins what register renumbering buys every
// Table 1 build: the virtual registers summed over all functions stay
// under 150 unflattened and 250 flattened (2094 and 4424 with one
// register per temporary), and os_work's frame holds at most 8.
func TestTable1RegisterTotals(t *testing.T) {
	for _, v := range []Variant{{}, {HandOptimized: true}, {Flattened: true}, {HandOptimized: true, Flattened: true}} {
		res, err := BuildRouter(v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		limit := 150
		if v.Flattened {
			limit = 250
		}
		total, osWork := 0, 0
		for name, fn := range res.Object.Funcs {
			total += fn.NRegs
			if strings.HasPrefix(name, "os_work") {
				osWork++
				if fn.NRegs > 8 {
					t.Errorf("%s: %s has %d registers, want at most 8", v, name, fn.NRegs)
				}
			}
		}
		if osWork != 1 {
			t.Errorf("%s: found %d os_work functions, want 1", v, osWork)
		}
		if total >= limit {
			t.Errorf("%s: %d registers over %d functions, want under %d", v, total, len(res.Object.Funcs), limit)
		}
	}
}

// windowTotals recovers the integer cycle and stall totals behind a
// measurement's per-packet means: the stopwatch divides each total by
// Packets, and at these magnitudes the product rounds back exactly.
func windowTotals(m *Measurement) (cycles, stalls int64) {
	w := float64(m.Packets)
	return int64(math.Round(m.CyclesPerPk * w)), int64(math.Round(m.StallsPerPk * w))
}

// configErrors are configurations ParseConfig or CompileToKnit refuse,
// with what the error says and where it points.
var configErrors = []struct{ name, cfg, want, pos string }{
	{"unknown class", "x :: Bogus;", "unknown element class", "1:6"},
	{"redeclared", "x :: Discard; x :: Discard;", "redeclared", "1:15"},
	{"unknown element", "x :: Discard; y -> x;", "unknown element", "1:15"},
	{"unconnected port", "f :: FromDevice(0);", "not connected", "1:1"},
	{"bad port", "d :: Discard; q :: Queue; q [3] -> d; ", "output ports", "1:27"},
	{"double connect", "q :: Queue; a :: Discard; b :: Discard; q -> a; q -> b;", "connected twice", "1:49"},
	{"into source", "q :: Queue; f :: FromDevice(0); q -> f; f -> q;", "no input", "1:38"},
	{"empty", "  ", "empty configuration", "1:3"},
	{"garbage", "hello world;", "cannot parse", "1:1"},
	{"bad device", "f :: FromDevice(7); d :: Discard; f -> d;", "not available", "1:1"},
	// The class is on line 4, not statement 2.
	{"class line", "fd0 :: FromDevice(0);\n\n\nbad :: Nope;", `unknown element class "Nope"`, "4:8"},
	// A ';' inside a comment does not end a statement.
	{"semicolon in comment", "// wire it; carefully\nfd0 :: FromDevice(0);", `output port 0 of "fd0" (FromDevice) is not connected`, "2:1"},
	{"non-numeric port", "fd0 :: FromDevice(0); cl0 :: Classifier; fd0 [x] -> cl0;", `bad port selector "x"`, "1:42"},
	{"negative port", "fd0 :: FromDevice(0); cl0 :: Classifier; fd0 [-1] -> cl0;", "port -1 used", "1:42"},
}

func TestConfigErrors(t *testing.T) {
	for _, c := range configErrors {
		t.Run(c.name, func(t *testing.T) {
			g, err := ParseConfig(c.cfg)
			if err == nil {
				_, _, _, err = g.CompileToKnit("X")
			}
			if err == nil {
				t.Fatalf("config accepted, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			if got := diagtest.At(t, err, c.cfg); got != c.pos {
				t.Errorf("error %q at %s, want %s", err, got, c.pos)
			}
		})
	}
}

// TestConfigNamesMayBeCKeywords: the configuration language borrows C's
// lexer but not C's keywords.
func TestConfigNamesMayBeCKeywords(t *testing.T) {
	g, err := ParseConfig("int :: FromDevice(0); for :: Discard; int -> for;")
	if err != nil {
		t.Fatal(err)
	}
	if e := g.Elements[0]; e.Name != "int" || e.Conn(0) != "for" || g.Elements[1].Name != "for" {
		t.Errorf("elements = %+v, %+v", *g.Elements[0], *g.Elements[1])
	}
}

// FuzzConfig: any text either parses into a graph that compiles to a
// Knit unit, or is refused with an error positioned inside it. Nothing
// panics.
func FuzzConfig(f *testing.F) {
	f.Add(StandardRouterConfig)
	for _, c := range configErrors {
		f.Add(c.cfg)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseConfig(src)
		if err == nil {
			_, _, _, err = g.CompileToKnit("Fuzz")
		}
		if err != nil {
			diagtest.At(t, err, src)
		}
	})
}

func TestSimpleCountDiscardConfig(t *testing.T) {
	// The paper's first Click example: FromDevice(0) -> Counter -> Discard.
	cfg := `
src :: FromDevice(0);
cnt :: Counter;
sink :: Discard;
src -> cnt -> sink;
`
	g, err := ParseConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	units, sources, top, err := g.CompileToKnit("CountRouter")
	if err != nil {
		t.Fatal(err)
	}
	if top != "CountRouter" {
		t.Errorf("top = %q", top)
	}
	full := ElementUnits + units
	for k, v := range ElementSources() {
		sources[k] = v
	}
	res, err := buildFromParts(full, sources, top)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := res.NewMachine()
	streams := DefaultTraffic(50).Generate()
	stats := InstallDevices(m, streams)
	installTicks(m)
	if _, err := res.Run(m, "main", "kmain", 100); err != nil {
		t.Fatal(err)
	}
	// Only device 0's stream is consumed, and everything is discarded.
	if stats.Rx[0] != 25 || stats.Rx[1] != 0 {
		t.Errorf("rx = %v", stats.Rx)
	}
	if stats.Dropped != 25 {
		t.Errorf("dropped = %d, want 25", stats.Dropped)
	}
}
