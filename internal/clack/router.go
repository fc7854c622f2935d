package clack

import (
	"fmt"

	"knit/internal/knit/build"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// StandardRouterConfig is the Clack IP router of §5.2 / Table 1 in the
// Click configuration language: 24 router components — two ingress
// chains (FromDevice, Classifier, ARPResponder), a shared CheckIPHeader
// pair and route lookup, and two egress chains (DecIPTTL,
// FixIPChecksum, EthEncap, Queue, Counter, ToDevice) plus a shared
// Discard and the device-number providers.
const StandardRouterConfig = `
// sources
fd0 :: FromDevice(0);
fd1 :: FromDevice(1);

// ingress classification
cl0 :: Classifier;
cl1 :: Classifier;
ar0 :: ARPResponder;
ar1 :: ARPResponder;

// IP path
ck0 :: CheckIPHeader;
ck1 :: CheckIPHeader;
rt  :: LookupIPRoute;
tt0 :: DecIPTTL;
tt1 :: DecIPTTL;
fx0 :: FixIPChecksum;
fx1 :: FixIPChecksum;
en0 :: EthEncap(0);
en1 :: EthEncap(1);
q0  :: Queue;
q1  :: Queue;
ct0 :: Counter;
ct1 :: Counter;
td0 :: ToDevice(0);
td1 :: ToDevice(1);
dsc :: Discard;

fd0 -> cl0;
fd1 -> cl1;
cl0 [0] -> ck0;
cl0 [1] -> ar0;
cl0 [2] -> dsc;
cl1 [0] -> ck1;
cl1 [1] -> ar1;
cl1 [2] -> dsc;
ar0 -> q0;
ar1 -> q1;
ck0 [0] -> rt;
ck0 [1] -> dsc;
ck1 [0] -> rt;
ck1 [1] -> dsc;
rt [0] -> tt0;
rt [1] -> tt1;
tt0 [0] -> fx0;
tt0 [1] -> dsc;
tt1 [0] -> fx1;
tt1 [1] -> dsc;
fx0 -> en0 -> q0 -> ct0 -> td0;
fx1 -> en1 -> q1 -> ct1 -> td1;
`

// Variant selects a Table 1 router build.
type Variant struct {
	HandOptimized bool // 24 components manually merged into 2
	Flattened     bool // Knit flattening of the router region
}

// String names the variant as in Table 1's first two columns.
func (v Variant) String() string {
	switch {
	case v.HandOptimized && v.Flattened:
		return "hand+flat"
	case v.HandOptimized:
		return "hand"
	case v.Flattened:
		return "flattened"
	}
	return "modular"
}

// BuildRouter builds the Clack router in the given variant. All builds
// compile with the optimizer on (the paper uses gcc -O for every
// configuration); flattening controls whether optimization can cross
// component boundaries.
func BuildRouter(v Variant) (*build.Result, error) {
	return BuildRouterTuned(v, nil)
}

// BuildRouterTuned builds a router variant with a hook to adjust the
// build options (compiler thresholds, cost model) — used by the
// ablation benchmarks.
func BuildRouterTuned(v Variant, tune func(*build.Options)) (*build.Result, error) {
	var units string
	sources := link.Sources{}

	if v.HandOptimized {
		// HandPath's two step exports poll devices 0 and 1.
		drvUnit, drvSrc := routerDriver([]laneStep{{"step_0", 0}, {"step_1", 1}})
		units = ElementUnits + HandOptUnits + drvUnit
		for k, s := range HandOptSources() {
			sources[k] = s
		}
		sources["driver.c"] = drvSrc
		sources["oswork.c"] = ElementSources()["oswork.c"]
	} else {
		g, err := ParseConfig(StandardRouterConfig)
		if err != nil {
			return nil, err
		}
		routerUnits, genSources, _, err := g.CompileToKnit("ClackRouter")
		if err != nil {
			return nil, err
		}
		units = ElementUnits + routerUnits
		for k, s := range genSources {
			sources[k] = s
		}
		for k, s := range ElementSources() {
			sources[k] = s
		}
	}

	costs := machine.DefaultCosts()
	// The router's hot path must not fit the instruction cache, as on
	// the paper's testbed (a 200 MHz Pentium Pro has an 8 KB L1 I-cache
	// against ~100 KB of router text); scaled to our much smaller
	// programs that means a small modelled cache.
	costs.ICacheBytes = 2048
	costs.FuncPad = 64
	opts := build.Options{
		Top:         "ClackRouter",
		UnitFiles:   map[string]string{"clack.unit": units},
		Sources:     sources,
		Optimize:    true,
		InlineLimit: 2048,
		GrowthLimit: 1 << 15,
		Costs:       costs,
		Flatten:     v.Flattened,
		// Flatten the router, not the driver or the surrounding kernel —
		// the paper flattens "only the router rather than the entire
		// kernel".
		FlattenFilter: func(inst *link.Instance) bool {
			return inst.Unit.Name != "RouterDriver" && inst.Unit.Name != "OSWork"
		},
	}
	if tune != nil {
		tune(&opts)
	}
	return build.Build(opts)
}

// Measurement is one Table 1 row.
type Measurement struct {
	Variant     Variant
	CyclesPerPk float64 // cycles per packet through the router graph
	StallsPerPk float64 // i-fetch stall cycles per packet
	TextBytes   int64
	Packets     int64
	Forwarded   int
	Dropped     int
	Stats       *DeviceStats
}

// RunRouter executes a built router over the given traffic and returns
// the measurement. Costs may differ from the build's only through the
// machine; the image embeds the build-time cost model.
func RunRouter(res *build.Result, spec TrafficSpec) (*Measurement, error) {
	return RunRouterWith(res, spec, nil)
}

// RunRouterWith is RunRouter with a hook over the fresh machine before
// the run starts — TestTable1Shape uses it to attach a metrics
// collector (observe.Attach) to an otherwise identical run.
func RunRouterWith(res *build.Result, spec TrafficSpec, prep func(*machine.M)) (*Measurement, error) {
	m := res.NewMachine()
	streams := spec.Generate()
	stats := InstallDevices(m, streams)
	watch := machine.InstallStopWatch(m)
	if prep != nil {
		prep(m)
	}
	_, err := res.Run(m, "main", "kmain", int64(spec.Packets+16))
	if err != nil {
		return nil, err
	}
	if watch.Windows == 0 {
		return nil, fmt.Errorf("clack: no packets traversed the router")
	}
	if len(stats.TxBad) > 0 {
		return nil, fmt.Errorf("clack: malformed transmissions: %v", stats.TxBad)
	}
	return &Measurement{
		CyclesPerPk: watch.PerWindow(),
		StallsPerPk: watch.StallsPerWindow(),
		TextBytes:   res.Image.TextSize,
		Packets:     watch.Windows,
		Forwarded:   stats.Tx[0] + stats.Tx[1],
		Dropped:     stats.Dropped,
		Stats:       stats,
	}, nil
}

// MeasureVariant builds and runs one Table 1 variant.
func MeasureVariant(v Variant, spec TrafficSpec) (*Measurement, error) {
	res, err := BuildRouter(v)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", v, err)
	}
	meas, err := RunRouter(res, spec)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", v, err)
	}
	meas.Variant = v
	return meas, nil
}
