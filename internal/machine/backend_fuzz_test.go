package machine

import (
	"slices"
	"testing"

	"knit/internal/obj"
)

// beOp decodes one fuzz byte for FuzzBackendEquivalence: an operation
// and a template argument. Unlike FuzzDynamicLifecycle this fuzzer
// needs no success model — the interpreter IS the model, and the
// compiled backend must match it step for step.
//
//	op 0,1: load template tpl
//	op 2,3: unload template tpl
//	op 4:   interpose fn_tpl -> fn_((tpl+1)%4)
//	op 5:   unpose fn_tpl
//	op 6:   snapshot
//	op 7:   restore
func beOp(b byte) (op int, tpl int) {
	return int(b & 7), int(b>>3) % 4
}

// FuzzBackendEquivalence drives the same random lifecycle sequence —
// dynamic loads and unloads, interpositions, snapshots and restores,
// with every entry point run after every step — against two machines in
// lockstep: one on the reference interpreter, one on the compiled
// closure backend. At every step both must produce identical values,
// identical error text, identical instruction counts, identical memory
// images, the same function indices on every call, and clean
// dynamic-table invariants. This is the harness for
// the guarantee that the compiled backend's dispatch caches can never
// go stale: any sequence where a cached call target survives an
// interposition, unload, or restore shows up as a divergence here.
func FuzzBackendEquivalence(f *testing.F) {
	enc := func(op, tpl int) byte { return byte(op | tpl<<3) }
	// Seeds: ordered loads; interpose over loaded modules then unpose;
	// snapshot/restore straddling loads and interpositions; unload with
	// a redirect still installed; reload after restore.
	f.Add([]byte{enc(0, 0), enc(0, 1), enc(0, 2), enc(0, 3)})
	f.Add([]byte{enc(0, 0), enc(0, 3), enc(4, 0), enc(4, 3), enc(5, 0), enc(5, 3)})
	f.Add([]byte{enc(0, 0), enc(6, 0), enc(0, 1), enc(4, 1), enc(7, 0), enc(0, 1)})
	f.Add([]byte{enc(0, 0), enc(0, 1), enc(4, 0), enc(2, 1), enc(2, 0), enc(5, 0)})
	f.Add([]byte{enc(0, 2), enc(0, 0), enc(0, 1), enc(6, 0), enc(4, 2), enc(2, 2), enc(7, 0), enc(0, 2)})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		base := fileWith(buildFunc("base_id", 1, 2, 0, []obj.Instr{
			{Op: obj.OpRet, A: 0, HasVal: true},
		}))
		mi := loadFile(t, base)
		mc := loadFile(t, base)
		mc.SetBackend(BackendCompiled)
		var callsI, callsC []CallInfo
		mi.PostCall = func(ci CallInfo) { callsI = append(callsI, CallInfo{Fn: ci.Fn, Index: ci.Index}) }
		mc.PostCall = func(ci CallInfo) { callsC = append(callsC, CallInfo{Fn: ci.Fn, Index: ci.Index}) }

		var snapI, snapC *Snapshot

		// step applies one operation to both machines and fails on any
		// observable divergence.
		step := func(i int, name string, op func(m *M) error) {
			t.Helper()
			ei := op(mi)
			ec := op(mc)
			if (ei == nil) != (ec == nil) || (ei != nil && ei.Error() != ec.Error()) {
				t.Fatalf("step %d %s: interp err=%v, compiled err=%v", i, name, ei, ec)
			}
			if err := mi.CheckDynInvariants(); err != nil {
				t.Fatalf("step %d %s: interp invariants: %v", i, name, err)
			}
			if err := mc.CheckDynInvariants(); err != nil {
				t.Fatalf("step %d %s: compiled invariants: %v", i, name, err)
			}
			// Every entry point, live or dead: values, traps, and the
			// instruction counter must stay in lockstep.
			for tpl := 0; tpl < 4; tpl++ {
				fn := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[tpl]
				vi, ri := mi.Run(fn)
				vc, rc := mc.Run(fn)
				if vi != vc || (ri == nil) != (rc == nil) || (ri != nil && ri.Error() != rc.Error()) {
					t.Fatalf("step %d %s: %s: interp (%d, %v), compiled (%d, %v)",
						i, name, fn, vi, ri, vc, rc)
				}
			}
			if mi.Executed != mc.Executed {
				t.Fatalf("step %d %s: Executed interp=%d compiled=%d", i, name, mi.Executed, mc.Executed)
			}
			if !slices.Equal(callsI, callsC) {
				t.Fatalf("step %d %s: calls (fn, index) interp=%v compiled=%v", i, name, callsI, callsC)
			}
			callsI, callsC = callsI[:0], callsC[:0]
			if len(mi.Mem) != len(mc.Mem) {
				t.Fatalf("step %d %s: memory size interp=%d compiled=%d", i, name, len(mi.Mem), len(mc.Mem))
			}
			for a := range mi.Mem {
				if mi.Mem[a] != mc.Mem[a] {
					t.Fatalf("step %d %s: memory diverges at %d: interp=%d compiled=%d",
						i, name, a, mi.Mem[a], mc.Mem[a])
				}
			}
		}

		step(-1, "init", func(m *M) error { return nil })
		for i, b := range data {
			op, tpl := beOp(b)
			switch {
			case op <= 1:
				step(i, "load", func(m *M) error {
					return m.LoadDynamicAs(fuzzModName(tpl), "fuzz/"+fuzzModName(tpl), fuzzTemplate(tpl))
				})
			case op <= 3:
				step(i, "unload", func(m *M) error { return m.UnloadDynamic(fuzzModName(tpl)) })
			case op == 4:
				from := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[tpl]
				to := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[(tpl+1)%4]
				step(i, "interpose", func(m *M) error { return m.Interpose(from, to) })
			case op == 5:
				sym := [...]string{"fn_0", "fn_1", "fn_2", "fn_3"}[tpl]
				step(i, "unpose", func(m *M) error { m.Unpose(sym); return nil })
			case op == 6:
				step(i, "snapshot", func(m *M) error {
					if m == mi {
						snapI = m.Snapshot()
					} else {
						snapC = m.Snapshot()
					}
					return nil
				})
			default:
				step(i, "restore", func(m *M) error {
					if m == mi {
						if snapI != nil {
							m.Restore(snapI)
						}
					} else if snapC != nil {
						m.Restore(snapC)
					}
					return nil
				})
			}
		}
	})
}
