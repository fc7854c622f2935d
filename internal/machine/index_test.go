package machine

import (
	"testing"

	"knit/internal/obj"
)

// callIndices runs entry and returns the index each called function
// reported in its CallInfo.
func callIndices(t *testing.T, m *M, entry string, args ...int64) map[string]int {
	t.Helper()
	got := map[string]int{}
	m.PostCall = func(ci CallInfo) {
		if prev, ok := got[ci.Fn]; ok && prev != ci.Index {
			t.Errorf("%s reported index %d, then %d", ci.Fn, prev, ci.Index)
		}
		got[ci.Fn] = ci.Index
	}
	defer func() { m.PostCall = nil }()
	if _, err := m.Run(entry, args...); err != nil {
		t.Fatalf("%s: %v", entry, err)
	}
	return got
}

// identityModule is a dynamic module of one pass-through function.
func identityModule(fn string) *obj.File {
	return fileWith(buildFunc(fn, 1, 1, 0, []obj.Instr{{Op: obj.OpRet, A: 0, HasVal: true}}))
}

// TestFunctionIndexStatic: static functions are numbered 0…n−1 in text
// (name) order, and both engines report the same index, over direct and
// indirect calls.
func TestFunctionIndexStatic(t *testing.T) {
	f := nestedProgram()
	for name, fn := range indirectProgram().Funcs {
		f.Funcs[name] = fn
		f.AddSym(&obj.Symbol{Name: name, Kind: obj.SymFunc, Defined: true})
	}
	want := map[string]int{"callit": 0, "inner": 1, "middle": 2, "outer": 3, "seven": 4}
	mi, mc := compiledPair(t, f)
	for _, m := range []*M{mi, mc} {
		got := callIndices(t, m, "outer", 1)
		for fn, i := range callIndices(t, m, "callit") {
			got[fn] = i
		}
		if len(got) != len(want) {
			t.Fatalf("%v: saw %v, want %v", m.Backend(), got, want)
		}
		for fn, i := range want {
			if got[fn] != i {
				t.Errorf("%v: %s has index %d, want %d", m.Backend(), fn, got[fn], i)
			}
		}
	}
}

// TestFunctionIndexDynamic: live dynamic functions get distinct indices
// past the static ones, and no index is ever handed to a second
// function on one machine — not after UnloadDynamic, a Restore past a
// load, or Reset — while a Restore brings a function back under its old
// index. Both engines draw the same numbers. A snapshot restored onto
// another machine gets fresh indices there.
func TestFunctionIndexDynamic(t *testing.T) {
	base := fileWith(buildFunc("base_id", 1, 1, 0, []obj.Instr{{Op: obj.OpRet, A: 0, HasVal: true}}))
	mi, mc := compiledPair(t, base)
	// owner[i] names the one load each index may belong to.
	owner := map[int]string{0: "base_id"}
	load := 0
	indexOf := func(fn string) int {
		t.Helper()
		ii, ic := callIndices(t, mi, fn, 1)[fn], callIndices(t, mc, fn, 1)[fn]
		if ii != ic {
			t.Fatalf("%s: interp index %d, compiled %d", fn, ii, ic)
		}
		return ii
	}
	// loaded loads fn as a new module on both machines and checks that
	// its index is fresh.
	loaded := func(fn string) int {
		t.Helper()
		load++
		for _, m := range []*M{mi, mc} {
			if err := m.LoadDynamicAs("mod_"+fn, "", identityModule(fn)); err != nil {
				t.Fatal(err)
			}
		}
		i := indexOf(fn)
		if prev, ok := owner[i]; ok {
			t.Fatalf("load %d of %s drew index %d, already %s's", load, fn, i, prev)
		}
		owner[i] = fn
		return i
	}
	each := func(op func(m *M) error) {
		t.Helper()
		for _, m := range []*M{mi, mc} {
			if err := op(m); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckDynInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}

	a, b := loaded("dyn_a"), loaded("dyn_b")
	if a < 1 || b < 1 || a == b {
		t.Fatalf("dynamic indices %d, %d: want distinct and past the static 0", a, b)
	}
	each(func(m *M) error { return m.UnloadDynamic("mod_dyn_a") })
	loaded("dyn_a")
	snaps := map[*M]*Snapshot{mi: mi.Snapshot(), mc: mc.Snapshot()}
	each(func(m *M) error { return m.UnloadDynamic("mod_dyn_b") })
	loaded("dyn_c") // the Restore below rewinds past this load
	each(func(m *M) error { m.Restore(snaps[m]); return nil })
	if got := indexOf("dyn_b"); got != b {
		t.Errorf("dyn_b after Restore has index %d, want its old %d", got, b)
	}
	loaded("dyn_c")
	each(func(m *M) error { m.Reset(); return nil })
	if got := indexOf("base_id"); got != 0 {
		t.Errorf("base_id after Reset has index %d, want 0", got)
	}
	loaded("dyn_a")

	// A snapshot taken on another machine: dst has drawn an index of its
	// own first, the same number src gave the snapshot's function.
	src := loadFile(t, base)
	if err := src.LoadDynamicAs("src_mod", "", identityModule("dyn_src")); err != nil {
		t.Fatal(err)
	}
	snap := src.Snapshot()
	dst := loadFile(t, base)
	if err := dst.LoadDynamicAs("dst_mod", "", identityModule("dyn_dst")); err != nil {
		t.Fatal(err)
	}
	dstIndex := callIndices(t, dst, "dyn_dst", 1)["dyn_dst"]
	dst.Restore(snap)
	if err := dst.CheckDynInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := callIndices(t, dst, "dyn_src", 1)["dyn_src"]; got == dstIndex {
		t.Errorf("restored dyn_src took index %d, already dyn_dst's on this machine", got)
	}
}
