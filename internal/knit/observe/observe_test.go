package observe

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"knit/internal/cmini"
	"knit/internal/machine"
	"knit/internal/obj"
)

// Observe tests hand-build IR (like the machine tests) and assign unit
// ownership directly through Image.SymbolOwner, pinning down attribution
// semantics independently of the link and build layers.

func fn(name string, nargs, nregs int, code []obj.Instr) *obj.Func {
	return &obj.Func{Name: name, NArgs: nargs, NRegs: nregs, Code: code}
}

// ownedMachine builds app_main -> disk_read -> net_send, each symbol
// owned by a distinct unit instance.
func ownedMachine(t testing.TB) *machine.M {
	net := fn("net_send", 1, 2, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 1},
		{Op: obj.OpBin, Dst: 1, A: 0, B: 1, Tok: int(cmini.PLUS)},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	disk := fn("disk_read", 1, 2, []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: "net_send", Args: []obj.Reg{0}},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	app := fn("app_main", 1, 2, []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: "disk_read", Args: []obj.Reg{0}},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	f := obj.NewFile("observe_test")
	for _, fun := range []*obj.Func{net, disk, app} {
		f.Funcs[fun.Name] = fun
		f.AddSym(&obj.Symbol{Name: fun.Name, Kind: obj.SymFunc, Defined: true})
	}
	img, err := machine.Load(f, machine.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(img)
	m.Img.SymbolOwner = map[string]string{
		"app_main":  "Top/App#0",
		"disk_read": "Top/Disk#1",
		"net_send":  "Top/Net#2",
	}
	return m
}

// TestAttributionTable is the exhaustive attribution check: every
// TrapKind, plus restart/swap/init/fini/unload lifecycle events, must
// land on the unit instance that owns it — and only there. The Traps
// array is sized by machine.NumTrapKinds, so adding a trap kind without
// a counter fails to compile; this test additionally pins the runtime
// routing for each kind.
func TestAttributionTable(t *testing.T) {
	for k := 0; k < machine.NumTrapKinds; k++ {
		kind := machine.TrapKind(k)
		t.Run(kind.String(), func(t *testing.T) {
			m := ownedMachine(t)
			c := Attach(m)
			// Inject a trap of this kind at entry to disk_read: the error
			// propagates unchanged through app_main's frame, so the
			// collector must count it exactly once, against Top/Disk#1.
			m.PreCall = func(fname string) error {
				if fname == "disk_read" {
					return &machine.Trap{Kind: kind, Func: "disk_read", Msg: "injected"}
				}
				return nil
			}
			if _, err := m.Run("app_main", 1); err == nil {
				t.Fatal("injected trap did not surface")
			}
			disk := c.Snapshot("Top/Disk#1")
			if disk == nil {
				t.Fatal("no metrics attributed to Top/Disk#1")
			}
			for j := 0; j < machine.NumTrapKinds; j++ {
				want := uint64(0)
				if j == k {
					want = 1
				}
				if disk.Traps[j] != want {
					t.Errorf("Traps[%s] = %d, want %d", machine.TrapKind(j), disk.Traps[j], want)
				}
			}
			// The propagating frame (app_main) must not double-count.
			if app := c.Snapshot("Top/App#0"); app != nil && app.TrapTotal() != 0 {
				t.Errorf("propagating frame Top/App#0 counted %d traps, want 0", app.TrapTotal())
			}
			if net := c.Snapshot("Top/Net#2"); net != nil && net.TrapTotal() != 0 {
				t.Errorf("uninvolved Top/Net#2 counted %d traps, want 0", net.TrapTotal())
			}
		})
	}

	// Lifecycle events: each op must bump exactly its own counter on
	// exactly the named instance.
	m := ownedMachine(t)
	c := Attach(m)
	ops := []struct {
		op  string
		get func(*InstanceMetrics) uint64
	}{
		{"init", func(im *InstanceMetrics) uint64 { return im.Inits }},
		{"fini", func(im *InstanceMetrics) uint64 { return im.Finis }},
		{"restart", func(im *InstanceMetrics) uint64 { return im.Restarts }},
		{"swap", func(im *InstanceMetrics) uint64 { return im.Swaps }},
		{"unload", func(im *InstanceMetrics) uint64 { return im.Unloads }},
	}
	for i, op := range ops {
		c.LifecycleEvent("Top/Disk#1", op.op)
		disk := c.Snapshot("Top/Disk#1")
		if got := op.get(disk); got != 1 {
			t.Errorf("op %q: counter = %d, want 1", op.op, got)
		}
		total := disk.Inits + disk.Finis + disk.Restarts + disk.Swaps + disk.Unloads
		if total != uint64(i+1) {
			t.Errorf("after %q: lifecycle total = %d, want %d (op bumped a sibling counter)", op.op, total, i+1)
		}
		if other := c.Snapshot("Top/App#0"); other != nil {
			if other.Inits+other.Finis+other.Restarts+other.Swaps+other.Unloads != 0 {
				t.Errorf("op %q leaked onto Top/App#0", op.op)
			}
		}
	}
	c.LifecycleEvent("Top/Disk#1", "no-such-op") // must be ignored, not panic
}

// TestRealTrapAttribution: a genuinely raised machine trap (not
// injected) attributes to the faulting function's owner even though the
// hook sees it first on the innermost frame.
func TestRealTrapAttribution(t *testing.T) {
	bad := fn("disk_bad", 0, 1, []obj.Instr{
		{Op: obj.OpConst, Dst: 0, Imm: 3},
		{Op: obj.OpLoad, Dst: 0, A: 0}, // address 3 is inside the NULL guard
	})
	top := fn("app_top", 0, 1, []obj.Instr{
		{Op: obj.OpCall, Dst: 0, Sym: "disk_bad"},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	f := obj.NewFile("t")
	for _, fun := range []*obj.Func{bad, top} {
		f.Funcs[fun.Name] = fun
		f.AddSym(&obj.Symbol{Name: fun.Name, Kind: obj.SymFunc, Defined: true})
	}
	img, err := machine.Load(f, machine.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(img)
	m.Img.SymbolOwner = map[string]string{"app_top": "Top/App#0", "disk_bad": "Top/Disk#1"}
	c := Attach(m)
	_, err = m.Run("app_top")
	var trap *machine.Trap
	if !errors.As(err, &trap) || trap.Kind != machine.TrapBadAddress {
		t.Fatalf("err = %v, want bad-address trap", err)
	}
	disk := c.Snapshot("Top/Disk#1")
	if disk == nil || disk.Traps[machine.TrapBadAddress] != 1 || disk.TrapTotal() != 1 {
		t.Fatalf("Top/Disk#1 traps = %+v, want exactly one bad-address", disk)
	}
	if app := c.Snapshot("Top/App#0"); app != nil && app.TrapTotal() != 0 {
		t.Errorf("Top/App#0 counted %d traps, want 0", app.TrapTotal())
	}
}

// TestSelfCycles: per-instance self cycles must partition the total —
// they sum to the top-level call's inclusive fuel, with no double
// counting across the call chain.
func TestSelfCycles(t *testing.T) {
	m := ownedMachine(t)
	var inclusive int64
	m.PostCall = func(ci machine.CallInfo) {
		if ci.Depth == 0 {
			inclusive += ci.Cycles
		}
	}
	c := Attach(m) // chains the hook above after the collector
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := m.Run("app_main", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.Report()
	var selfSum int64
	for i := range rep.Instances {
		im := &rep.Instances[i]
		if im.Cycles <= 0 {
			t.Errorf("%s: self cycles = %d, want > 0", im.Path, im.Cycles)
		}
		if im.Calls != runs {
			t.Errorf("%s: calls = %d, want %d", im.Path, im.Calls, runs)
		}
		selfSum += im.Cycles
	}
	if selfSum != inclusive {
		t.Errorf("self cycles sum = %d, inclusive total = %d; attribution must partition fuel", selfSum, inclusive)
	}
	if got := rep.TotalCalls(); got != 3*runs {
		t.Errorf("TotalCalls = %d, want %d", got, 3*runs)
	}
}

// TestUnattributedCalls: symbols with no owner land in the "" ledger
// rather than vanishing.
func TestUnattributedCalls(t *testing.T) {
	m := ownedMachine(t)
	delete(m.Img.SymbolOwner, "net_send")
	c := Attach(m)
	if _, err := m.Run("app_main", 1); err != nil {
		t.Fatal(err)
	}
	anon := c.Snapshot("")
	if anon == nil || anon.Calls != 1 {
		t.Fatalf("unattributed ledger = %+v, want 1 call", anon)
	}
}

// TestDetachRestoresChain: Detach puts back the previously installed
// hook and stops collection.
func TestDetachRestoresChain(t *testing.T) {
	m := ownedMachine(t)
	var prior int
	m.PostCall = func(machine.CallInfo) { prior++ }
	c := Attach(m)
	if _, err := m.Run("app_main", 1); err != nil {
		t.Fatal(err)
	}
	if prior != 3 {
		t.Fatalf("chained hook fired %d times, want 3", prior)
	}
	c.Detach()
	if _, err := m.Run("app_main", 1); err != nil {
		t.Fatal(err)
	}
	if prior != 6 {
		t.Errorf("restored hook fired %d times total, want 6", prior)
	}
	if im := c.Snapshot("Top/App#0"); im.Calls != 1 {
		t.Errorf("collector kept counting after Detach: calls = %d, want 1", im.Calls)
	}
}

// TestCollectorZeroAllocs: the attached no-fault path (metrics + tracer)
// must stay off the heap once maps and ring are warm.
func TestCollectorZeroAllocs(t *testing.T) {
	m := ownedMachine(t)
	c := Attach(m)
	c.Trace(64)
	run := func() {
		if _, err := m.Run("app_main", 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the owner slice, instance ledgers, frame arenas
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("attached collector+tracer path: %.1f allocs/op, want 0", n)
	}
}

func TestHistogramAndPercentiles(t *testing.T) {
	if b := histBucket(0); b != 0 {
		t.Errorf("histBucket(0) = %d, want 0", b)
	}
	if b := histBucket(1); b != 0 {
		t.Errorf("histBucket(1) = %d, want 0", b)
	}
	if b := histBucket(1024); b != 10 {
		t.Errorf("histBucket(1024) = %d, want 10", b)
	}
	if b := histBucket(1 << 40); b != HistBuckets-1 {
		t.Errorf("histBucket(2^40) = %d, want tail bucket %d", b, HistBuckets-1)
	}
	var im InstanceMetrics
	if p := im.ApproxPercentile(50); p != 0 {
		t.Errorf("empty percentile = %d, want 0", p)
	}
	im.Calls = 100
	im.Hist[3] = 90 // [8,16)
	im.Hist[9] = 10 // [512,1024)
	if p := im.ApproxPercentile(50); p != 16 {
		t.Errorf("p50 = %d, want 16", p)
	}
	if p := im.ApproxPercentile(99); p != 1024 {
		t.Errorf("p99 = %d, want 1024", p)
	}
}

func TestReportFormat(t *testing.T) {
	m := ownedMachine(t)
	c := Attach(m)
	if _, err := m.Run("app_main", 1); err != nil {
		t.Fatal(err)
	}
	c.LifecycleEvent("Top/Disk#1", "restart")
	var buf bytes.Buffer
	c.Report().Format(&buf)
	out := buf.String()
	for _, want := range []string{"Top/App#0", "Top/Disk#1", "Top/Net#2", "restarts=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}
