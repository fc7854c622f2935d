package reconfigure

import (
	"fmt"
	"strings"
	"testing"

	"knit/internal/knit/build"
	"knit/internal/knit/link"
)

// FuzzReconfigure is the differential oracle for the whole
// reconfiguration path: two generated wirings of the same component
// vocabulary become a running base and an upgrade target; the diffed
// plan applied to the live machine must be observationally identical to
// a cold build of the target, also after some calls and a restart of
// every slot the plan loaded, and rolling it back must restore the base
// observation with zero machine residue.

// fuzzUnits is the component vocabulary: a source A, four pipeline
// transforms with one export surface (V2 adds an initializer — the
// lifecycle path; V3 a static that every get advances — state a restart
// must reset), and a driver C.
const fuzzUnits = `
bundletype Svc = { get }

unit A = {
  exports [ out : Svc ];
  initializer a_init for out;
  files { "a.c" };
  rename { out.get to out_get; };
}
unit V0 = {
  imports [ in : Svc ];
  exports [ out : Svc ];
  depends { out needs in; };
  files { "v0.c" };
  rename { in.get to in_get; out.get to out_get; };
}
unit V1 = {
  imports [ in : Svc ];
  exports [ out : Svc ];
  depends { out needs in; };
  files { "v1.c" };
  rename { in.get to in_get; out.get to out_get; };
}
unit V2 = {
  imports [ in : Svc ];
  exports [ out : Svc ];
  initializer v2_init for out;
  depends { out needs in; v2_init needs in; };
  files { "v2.c" };
  rename { in.get to in_get; out.get to out_get; };
}
unit V3 = {
  imports [ in : Svc ];
  exports [ out : Svc ];
  depends { out needs in; };
  files { "v3.c" };
  rename { in.get to in_get; out.get to out_get; };
}
unit C = {
  imports [ in : Svc ];
  exports [ c : Svc ];
  depends { c needs in; };
  files { "cdrv.c" };
  rename { in.get to in_get; c.get to c_get; };
}
`

var fuzzSources = link.Sources{
	"a.c": `
static int s;
void a_init(void) { s = 3; }
int out_get(void) { return s; }
`,
	"v0.c": `
int in_get(void);
int out_get(void) { return in_get() * 2 + 1; }
`,
	"v1.c": `
int in_get(void);
int out_get(void) { return in_get() * 3 + 7; }
`,
	"v2.c": `
int in_get(void);
static int state;
void v2_init(void) { state = in_get() + 5; }
int out_get(void) { return state * 2; }
`,
	"v3.c": `
int in_get(void);
static int k = 5;
int out_get(void) { k = k + 1; return in_get() + k; }
`,
	"cdrv.c": `
int in_get(void);
int c_get(void) { return in_get(); }
`,
}

// chainText wires A through len(vs) transform stages (variant
// vs[i]%variants at stage i) into C. Identical vs produce byte-identical
// unit text — the NoOp case. A base draws from V0–V2 and a target from
// V0–V3: the state of a V3 the base had run would hold calls a cold
// build of the target never made, so V3 runs only where an upgrade
// loads it fresh.
func chainText(vs []byte, variants byte) string {
	var b strings.Builder
	b.WriteString(fuzzUnits)
	b.WriteString("unit Chain = {\n  exports [ c : Svc ];\n  link {\n    [s0] <- A <- [];\n")
	prev := "s0"
	for i, v := range vs {
		slot := fmt.Sprintf("s%d", i+1)
		fmt.Fprintf(&b, "    [%s] <- V%d <- [%s];\n", slot, v%variants, prev)
		prev = slot
	}
	fmt.Fprintf(&b, "    [c] <- C <- [%s];\n  };\n}\n", prev)
	return b.String()
}

func clampStages(vs []byte) []byte {
	if len(vs) > 4 {
		vs = vs[:4]
	}
	return vs
}

func FuzzReconfigure(f *testing.F) {
	// Seeds: no-op, single-stage swap, deep swap, lifecycle variant in
	// and out, depth changes in both directions, and a stateful stage
	// upgraded in.
	f.Add([]byte{0}, []byte{0}, uint8(0))
	f.Add([]byte{0}, []byte{1}, uint8(1))
	f.Add([]byte{0, 1, 2}, []byte{2, 1, 0}, uint8(2))
	f.Add([]byte{1, 1}, []byte{1, 2}, uint8(0))
	f.Add([]byte{2, 0}, []byte{0, 0}, uint8(3))
	f.Add([]byte{0, 1}, []byte{0, 1, 2}, uint8(1))
	f.Add([]byte{0, 1, 2, 0}, []byte{0, 1}, uint8(2))
	f.Add([]byte{0, 2}, []byte{3, 2}, uint8(2))
	f.Fuzz(func(t *testing.T, baseCfg, tgtCfg []byte, calls uint8) {
		baseCfg, tgtCfg = clampStages(baseCfg), clampStages(tgtCfg)

		res, err := build.Build(build.Options{
			Top:       "Chain",
			UnitFiles: map[string]string{"chain.unit": chainText(baseCfg, 3)},
			Sources:   fuzzSources,
			Check:     true,
		})
		if err != nil {
			t.Fatalf("base build %v: %v", baseCfg, err)
		}
		g, err := res.Export("c", "get")
		if err != nil {
			t.Fatal(err)
		}
		m := res.NewMachine()
		v0, err := res.Run(m, "c", "get")
		if err != nil {
			t.Fatalf("base run %v: %v", baseCfg, err)
		}

		plan, err := Diff(res, Target{
			Top:       "Chain",
			UnitFiles: map[string]string{"chain.unit": chainText(tgtCfg, 4)},
			Sources:   fuzzSources,
			Check:     true,
		})
		if err != nil {
			// A rejected plan is a legitimate outcome (the planner may
			// refuse shapes it cannot rewire minimally) — but never for
			// same-shape configurations, which always diff slot by slot.
			if len(baseCfg) == len(tgtCfg) {
				t.Fatalf("diff %v -> %v rejected: %v", baseCfg, tgtCfg, err)
			}
			t.Skip()
		}

		a, err := plan.Apply(m, nil)
		if err != nil {
			t.Fatalf("apply %v -> %v: %v", baseCfg, tgtCfg, err)
		}
		live, err := m.Run(g)
		if err != nil {
			t.Fatalf("upgraded run %v -> %v: %v", baseCfg, tgtCfg, err)
		}

		cold, err := build.Build(build.Options{
			Top:       "Chain",
			UnitFiles: map[string]string{"chain.unit": chainText(tgtCfg, 4)},
			Sources:   fuzzSources,
			Check:     true,
		})
		if err != nil {
			t.Fatalf("cold build %v: %v", tgtCfg, err)
		}
		cm := cold.NewMachine()
		want, err := cold.Run(cm, "c", "get")
		if err != nil {
			t.Fatalf("cold run %v: %v", tgtCfg, err)
		}
		if live != want {
			t.Fatalf("upgrade %v -> %v: live machine returns %d, cold build of target returns %d",
				baseCfg, tgtCfg, live, want)
		}

		// Some more calls, then a restart of every slot the plan loaded,
		// slot by slot so that both machines restart the same instances:
		// the new instance on the live machine, the one in the same slot
		// on the cold machine. A restart resets an instance's statics, a
		// live-loaded instance's as a statically linked one's.
		cg, err := cold.Export("c", "get")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(calls%8); i++ {
			if _, err := m.Run(g); err != nil {
				t.Fatalf("live call %d: %v", i, err)
			}
			if _, err := cm.Run(cg); err != nil {
				t.Fatalf("cold call %d: %v", i, err)
			}
		}
		for i, c := range plan.ordered {
			if err := res.RestartInstance(m, a.mods[i].Instance); err != nil {
				t.Fatalf("live restart of %s: %v", c.slot, err)
			}
			if err := cold.RestartInstance(cm, baseForSlot(cold.Program, c.slot)); err != nil {
				t.Fatalf("cold restart of %s: %v", c.slot, err)
			}
		}
		live, err = m.Run(g)
		if err != nil {
			t.Fatalf("live run after restarts: %v", err)
		}
		want, err = cm.Run(cg)
		if err != nil {
			t.Fatalf("cold run after restarts: %v", err)
		}
		if live != want {
			t.Fatalf("upgrade %v -> %v, %d calls, restart: live machine returns %d, cold build of target returns %d",
				baseCfg, tgtCfg, calls%8, live, want)
		}

		// And back: rollback must restore the base observation with zero
		// machine residue.
		a.Rollback()
		if err := a.VerifyRolledBack(); err != nil {
			t.Fatalf("rollback residue %v -> %v: %v", baseCfg, tgtCfg, err)
		}
		back, err := m.Run(g)
		if err != nil {
			t.Fatalf("post-rollback run: %v", err)
		}
		if back != v0 {
			t.Fatalf("rollback %v -> %v: machine returns %d, base returned %d",
				baseCfg, tgtCfg, back, v0)
		}
	})
}
