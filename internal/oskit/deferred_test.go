package oskit

import (
	"strings"
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/constraint"
)

// TestBottomHalfKernel is the safe version of BadIrqKernel: interrupts
// defer into a queue (NoContext side) and the blocking lock is only used
// by the process-context drain side — a single component carrying two
// different context constraints on two bundles.
func TestBottomHalfKernel(t *testing.T) {
	res, err := BuildKernel("BottomHalfKernel", build.Options{Check: true})
	if err != nil {
		t.Fatalf("BottomHalfKernel should pass the constraint check: %v", err)
	}
	// Per-bundle granularity: the checker assigned different domains to
	// the two bundles of the same instance.
	var enqDomain, drainDomain string
	for _, inst := range res.Program.Instances {
		if inst.Unit.Name != "DeferredWork" {
			continue
		}
		domain := func(bundle string) string {
			return strings.Join(res.ConstraintReport.Domain(constraint.Var{Inst: inst, Bundle: bundle, Prop: "context"}), ",")
		}
		enqDomain, drainDomain = domain("enq"), domain("drain")
	}
	if enqDomain != "NoContext" {
		t.Errorf("enq domain = %q, want NoContext", enqDomain)
	}
	if drainDomain != "ProcessContext" {
		t.Errorf("drain domain = %q, want ProcessContext", drainDomain)
	}

	// Behaviour: interrupts enqueue; drain processes everything under
	// the lock.
	m := res.NewMachine()
	irq, err := res.Export("irq", "irq_handle")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Run(irq, int64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	drain, err := res.Export("drain", "dw_drain")
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Run(drain)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("drained %d items, want 5", n)
	}
}

// TestBottomHalfRejectsDirectIrqDrain: wiring the drain side where a
// NoContext consumer calls it must fail — the safe pattern's dual.
func TestBottomHalfRejectsDirectIrqDrain(t *testing.T) {
	units := Units() + `
bundletype Poll2 = { poll2 }
unit EagerIrq = {
  imports [ d : Drainer ];
  exports [ p : Poll2 ];
  depends { p needs d; };
  files { "eager.c" };
  constraints {
    context(p) = NoContext;
    context(exports) <= context(imports);
  };
}
unit EagerKernel = {
  exports [ p : Poll2 ];
  link {
    [lock] <- BlockingLock <- [];
    [enq, drain] <- DeferredWork <- [lock];
    [p] <- EagerIrq <- [drain];
  };
}
`
	sources := KernelSources()
	sources["eager.c"] = `
int dw_drain(void);
int poll2(int v) { return dw_drain(); }
`
	_, err := build.Build(build.Options{
		Top:       "EagerKernel",
		UnitFiles: map[string]string{"oskit.unit": units},
		Sources:   sources,
		Check:     true,
	})
	if err == nil {
		t.Fatal("draining from interrupt context must be rejected")
	}
	if !strings.Contains(err.Error(), "constraint violation") {
		t.Errorf("err = %v", err)
	}
}
