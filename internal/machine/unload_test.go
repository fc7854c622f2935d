package machine

import (
	"strings"
	"testing"

	"knit/internal/obj"
)

// constMod builds a dynamic module named name exporting one function
// (fname, returning val) and one one-word global (gname).
func constMod(name, fname, gname string, val int64) *obj.File {
	f := obj.NewFile(name)
	f.Funcs[fname] = &obj.Func{Name: fname, NRegs: 2, Code: []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: val},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	f.AddSym(&obj.Symbol{Name: fname, Kind: obj.SymFunc, Defined: true})
	f.Datas[gname] = &obj.Data{Name: gname, Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: val}}}
	f.AddSym(&obj.Symbol{Name: gname, Kind: obj.SymData, Defined: true})
	return f
}

// callerMod builds a dynamic module whose function calls callee.
func callerMod(name, fname, callee string) *obj.File {
	f := obj.NewFile(name)
	f.Funcs[fname] = &obj.Func{Name: fname, NRegs: 2, Code: []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: callee, A: obj.NoReg},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	f.AddSym(&obj.Symbol{Name: fname, Kind: obj.SymFunc, Defined: true})
	f.AddSym(&obj.Symbol{Name: callee, Kind: obj.SymFunc, Defined: false})
	return f
}

func baseMachine(t *testing.T) *M {
	t.Helper()
	return loadFile(t, fileWith(buildFunc("base_id", 1, 2, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	})))
}

func TestUnloadReclaimsSymbolsAndMemory(t *testing.T) {
	m := baseMachine(t)
	memBefore := len(m.Mem)
	if err := m.LoadDynamic(constMod("mod1", "fn1", "g1", 11)); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Run("fn1"); err != nil || v != 11 {
		t.Fatalf("fn1 = %d, %v; want 11", v, err)
	}
	if err := m.UnloadDynamic("mod1"); err != nil {
		t.Fatalf("unload: %v", err)
	}
	if len(m.Mem) != memBefore {
		t.Errorf("memory not reclaimed: %d words, want %d", len(m.Mem), memBefore)
	}
	if mods := m.DynModules(); len(mods) != 0 {
		t.Errorf("live modules after unload: %v", mods)
	}
	if _, err := m.Run("fn1"); err == nil {
		t.Error("unloaded function still runnable")
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
	// The same module name is free for reuse after the unload.
	if err := m.LoadDynamic(constMod("mod1", "fn1", "g1", 22)); err != nil {
		t.Fatalf("reload after unload: %v", err)
	}
	if v, err := m.Run("fn1"); err != nil || v != 22 {
		t.Errorf("reloaded fn1 = %d, %v; want 22", v, err)
	}
}

func TestUnloadRefusedWhileReferenced(t *testing.T) {
	m := baseMachine(t)
	if err := m.LoadDynamic(constMod("prov", "p_fn", "p_g", 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadDynamic(callerMod("cons", "c_fn", "p_fn")); err != nil {
		t.Fatal(err)
	}
	err := m.UnloadDynamic("prov")
	if err == nil {
		t.Fatal("unloading a referenced module was allowed")
	}
	for _, want := range []string{"prov", "cons", "p_fn", "unload \"cons\" first"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q lacks %q", err, want)
		}
	}
	// Nothing changed: both modules still live and working.
	if v, err := m.Run("c_fn"); err != nil || v != 5 {
		t.Errorf("c_fn = %d, %v after refused unload; want 5", v, err)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
	// Reverse order works.
	if err := m.UnloadDynamic("cons"); err != nil {
		t.Fatal(err)
	}
	if err := m.UnloadDynamic("prov"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUnloadUnknownModule(t *testing.T) {
	m := baseMachine(t)
	if err := m.UnloadDynamic("ghost"); err == nil ||
		!strings.Contains(err.Error(), `no loaded module "ghost"`) {
		t.Errorf("err = %v, want no-loaded-module error", err)
	}
	if err := m.LoadDynamic(constMod("mod1", "fn1", "g1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.UnloadDynamic("mod1"); err != nil {
		t.Fatal(err)
	}
	if err := m.UnloadDynamic("mod1"); err == nil {
		t.Error("double unload succeeded")
	}
}

// TestUnloadMiddleModuleLeavesZeroedHole: unloading a module that is
// not the most recently loaded one cannot shrink memory (a live
// module's addresses never move) — its data region is zeroed instead,
// and later loads append fresh addresses past the high-water mark.
func TestUnloadMiddleModuleLeavesZeroedHole(t *testing.T) {
	m := baseMachine(t)
	memBefore := len(m.Mem)
	if err := m.LoadDynamic(constMod("lo", "lo_fn", "lo_g", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadDynamic(constMod("hi", "hi_fn", "hi_g", 2)); err != nil {
		t.Fatal(err)
	}
	memWithBoth := len(m.Mem)
	if err := m.UnloadDynamic("lo"); err != nil {
		t.Fatalf("unload middle: %v", err)
	}
	if len(m.Mem) != memWithBoth {
		t.Errorf("middle unload changed memory size: %d, want %d", len(m.Mem), memWithBoth)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
	// hi still works; lo is gone.
	if v, err := m.Run("hi_fn"); err != nil || v != 2 {
		t.Errorf("hi_fn = %d, %v; want 2", v, err)
	}
	if _, err := m.Run("lo_fn"); err == nil {
		t.Error("unloaded lo_fn still runnable")
	}
	// Unloading the topmost module reclaims the hole below it too.
	if err := m.UnloadDynamic("hi"); err != nil {
		t.Fatal(err)
	}
	if len(m.Mem) != memBefore {
		t.Errorf("memory %d words after the last unload, want %d", len(m.Mem), memBefore)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
}

// TestUnloadReclaimsTrailingDeadModules: memory and text shrink back to
// the end of the highest live module, so an unload also reclaims every
// dead module between it and the live ones. After loading A, B and C
// and unloading B (a hole under C) then C, memory and text end exactly
// where A's do; a new load then takes B's old addresses, and unloading
// everything returns both to the image's end. On both engines.
func TestUnloadReclaimsTrailingDeadModules(t *testing.T) {
	for _, backend := range []Backend{BackendInterp, BackendCompiled} {
		t.Run(backend.String(), func(t *testing.T) {
			m := baseMachine(t)
			m.SetBackend(backend)
			memImage := len(m.Mem)
			textEnd := func() int64 {
				if m.dyn == nil {
					return m.Img.TextSize
				}
				return m.Img.TextSize + m.dyn.textSize
			}
			step := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if err := m.CheckDynInvariants(); err != nil {
					t.Fatalf("after %s: %v", what, err)
				}
			}
			step("load A", m.LoadDynamic(constMod("A", "a_fn", "a_g", 1)))
			memA, textA := len(m.Mem), textEnd()
			step("load B", m.LoadDynamic(constMod("B", "b_fn", "b_g", 2)))
			memB, textB := len(m.Mem), textEnd()
			step("load C", m.LoadDynamic(constMod("C", "c_fn", "c_g", 3)))
			memC, textC := len(m.Mem), textEnd()

			step("unload B", m.UnloadDynamic("B"))
			if len(m.Mem) != memC || textEnd() != textC {
				t.Errorf("unloading B under C moved the end: mem %d text %d, want %d and %d",
					len(m.Mem), textEnd(), memC, textC)
			}
			step("unload C", m.UnloadDynamic("C"))
			if len(m.Mem) != memA || textEnd() != textA {
				t.Errorf("after unloading B then C: mem %d text %d, want A's end %d and %d",
					len(m.Mem), textEnd(), memA, textA)
			}
			if v, err := m.Run("a_fn"); err != nil || v != 1 {
				t.Errorf("a_fn = %d, %v; want 1", v, err)
			}

			step("load D", m.LoadDynamic(constMod("D", "d_fn", "d_g", 4)))
			if len(m.Mem) != memB || textEnd() != textB {
				t.Errorf("D loaded to mem %d text %d, want B's old end %d and %d",
					len(m.Mem), textEnd(), memB, textB)
			}
			if v, err := m.Run("d_fn"); err != nil || v != 4 {
				t.Errorf("d_fn = %d, %v; want 4", v, err)
			}
			step("unload A", m.UnloadDynamic("A"))
			step("unload D", m.UnloadDynamic("D"))
			if len(m.Mem) != memImage || textEnd() != m.Img.TextSize {
				t.Errorf("with no module live: mem %d text %d, want the image's %d and %d",
					len(m.Mem), textEnd(), memImage, m.Img.TextSize)
			}
		})
	}
}
