package machine

import (
	"errors"
	"strings"
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

func TestLoadDynamicBasics(t *testing.T) {
	base := fileWith(buildFunc("base_fn", 1, 2, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 10},
		{Op: obj.OpBin, Dst: 1, A: 0, B: 1, Tok: int(cmini.STAR)},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}))
	base.Datas["shared"] = &obj.Data{Name: "shared", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: 7}}}
	base.AddSym(&obj.Symbol{Name: "shared", Kind: obj.SymData, Defined: true})
	m := loadFile(t, base)

	// Dynamic module: calls base_fn, reads shared, has its own data and
	// string.
	mod := obj.NewFile("mod")
	mod.Strings = []string{"z"}
	mod.Datas["own"] = &obj.Data{Name: "own", Size: 2, Init: []obj.DataInit{
		{Kind: obj.InitConst, Offset: 0, Val: 5},
		{Kind: obj.InitSym, Offset: 1, Sym: "base_fn"},
	}}
	mod.AddSym(&obj.Symbol{Name: "own", Kind: obj.SymData, Defined: true})
	mod.Funcs["dyn_fn"] = &obj.Func{Name: "dyn_fn", NArgs: 1, NRegs: 6, Code: []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: "base_fn", Args: []obj.Reg{0}, A: obj.NoReg}, // 10x
		{Op: obj.OpAddrGlobal, Dst: 2, Sym: "shared", A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 2, A: 2}, // 7
		{Op: obj.OpBin, Dst: 1, A: 1, B: 2, Tok: int(cmini.PLUS)},
		{Op: obj.OpAddrGlobal, Dst: 3, Sym: "own", A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 3, A: 3}, // 5
		{Op: obj.OpBin, Dst: 1, A: 1, B: 3, Tok: int(cmini.PLUS)},
		{Op: obj.OpAddrString, Dst: 4, Imm: 0, A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 4, A: 4}, // 'z'
		{Op: obj.OpBin, Dst: 1, A: 1, B: 4, Tok: int(cmini.PLUS)},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	mod.AddSym(&obj.Symbol{Name: "dyn_fn", Kind: obj.SymFunc, Defined: true})

	if err := m.LoadDynamic(mod); err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	v, err := m.Run("dyn_fn", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(30 + 7 + 5 + 'z')
	if v != want {
		t.Errorf("dyn_fn(3) = %d, want %d", v, want)
	}
	// Indirect call through the function pointer stored in own[1].
	caller := obj.NewFile("c2")
	caller.Funcs["via_ptr"] = &obj.Func{Name: "via_ptr", NArgs: 1, NRegs: 3, Code: []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: "own", A: obj.NoReg},
		{Op: obj.OpConst, Dst: 2, Imm: 1},
		{Op: obj.OpBin, Dst: 1, A: 1, B: 2, Tok: int(cmini.PLUS)},
		{Op: obj.OpLoad, Dst: 1, A: 1},
		{Op: obj.OpCallInd, Dst: 2, A: 1, Args: []obj.Reg{0}},
		{Op: obj.OpRet, A: 2, HasVal: true},
	}}
	caller.AddSym(&obj.Symbol{Name: "via_ptr", Kind: obj.SymFunc, Defined: true})
	if err := m.LoadDynamic(caller); err != nil {
		t.Fatal(err)
	}
	v, err = m.Run("via_ptr", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 40 {
		t.Errorf("via_ptr(4) = %d, want 40", v)
	}
}

func TestLoadDynamicCollisionRejected(t *testing.T) {
	base := fileWith(buildFunc("f", 0, 1, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	m := loadFile(t, base)
	mod := fileWith(buildFunc("f", 0, 1, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	if err := m.LoadDynamic(mod); err == nil ||
		!strings.Contains(err.Error(), "already defined") {
		t.Errorf("err = %v, want already-defined rejection", err)
	}
}

// staticHelperModule is a dynamic module whose entry returns what its
// own static (Local) helper returns: val.
func staticHelperModule(name, entry, helper string, val int64) *obj.File {
	f := obj.NewFile(name)
	f.Funcs[helper] = buildFunc(helper, 0, 1, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 0, Imm: val},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	f.AddSym(&obj.Symbol{Name: helper, Kind: obj.SymFunc, Defined: true, Local: true})
	f.Funcs[entry] = buildFunc(entry, 0, 1, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 0, Sym: helper, A: obj.NoReg},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	f.AddSym(&obj.Symbol{Name: entry, Kind: obj.SymFunc, Defined: true})
	return f
}

// TestLoadDynamicLocalCollisionRejected: a static symbol is a definition
// the load commits like any other, so a module whose static shares a
// name with an image symbol or with another live module's symbol is
// refused whole, on both engines, rather than being shadowed by the
// image or taking over the other module's calls.
func TestLoadDynamicLocalCollisionRejected(t *testing.T) {
	base := fileWith(buildFunc("helper", 0, 1, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 0, Imm: 1},
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	mi, mc := compiledPair(t, base)
	for _, m := range []*M{mi, mc} {
		bk := m.Backend()
		err := m.LoadDynamicAs("shadowed", "", staticHelperModule("shadowed", "entry", "helper", 2))
		if err == nil || !strings.Contains(err.Error(), `symbol "helper" already defined`) {
			t.Errorf("%v: static helper over the image's: err = %v, want already-defined rejection", bk, err)
		}
		if err := m.LoadDynamicAs("A", "", staticHelperModule("A", "ea", "h", 10)); err != nil {
			t.Fatalf("%v: load A: %v", bk, err)
		}
		err = m.LoadDynamicAs("B", "", staticHelperModule("B", "eb", "h", 20))
		if err == nil || !strings.Contains(err.Error(), `symbol "h" already defined`) {
			t.Errorf("%v: static h over module A's: err = %v, want already-defined rejection", bk, err)
		}
		if mods := m.DynModules(); len(mods) != 1 || mods[0] != "A" {
			t.Errorf("%v: live modules %v, want [A]", bk, mods)
		}
		for entry, want := range map[string]int64{"helper": 1, "ea": 10} {
			if v, err := m.Run(entry); err != nil || v != want {
				t.Errorf("%v: %s() = %d, %v; want %d", bk, entry, v, err, want)
			}
		}
		for _, entry := range []string{"entry", "eb"} {
			if _, err := m.Run(entry); err == nil {
				t.Errorf("%v: %s of a refused module is runnable", bk, entry)
			}
		}
		if err := m.CheckDynInvariants(); err != nil {
			t.Errorf("%v: %v", bk, err)
		}
	}
}

func TestLoadDynamicUnresolvedRejected(t *testing.T) {
	m := loadFile(t, fileWith())
	mod := fileWith(buildFunc("g", 0, 2, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: "nowhere", A: obj.NoReg},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}))
	if err := m.LoadDynamic(mod); err == nil ||
		!strings.Contains(err.Error(), "unresolved symbol") {
		t.Errorf("err = %v, want unresolved symbol", err)
	}
	// Nothing was committed: memory length unchanged.
	if m.dyn != nil && len(m.dyn.syms) != 0 {
		t.Error("failed load leaked state")
	}
}

// TestLoadDynamicInitializerOutsideObject: a module's data initializer
// past the end of its object is refused with Load's message, and
// nothing of the module is loaded.
func TestLoadDynamicInitializerOutsideObject(t *testing.T) {
	m := loadFile(t, fileWith())
	mem := len(m.Mem)
	mod := obj.NewFile("mod")
	mod.Datas["d"] = &obj.Data{Name: "d", Size: 1, Init: []obj.DataInit{{Kind: obj.InitConst, Offset: 3, Val: 1}}}
	mod.AddSym(&obj.Symbol{Name: "d", Kind: obj.SymData, Defined: true})
	err := m.LoadDynamic(mod)
	if err == nil || err.Error() != "machine: dynamic: data d: initializer offset 3 outside its 1 words" {
		t.Errorf("err = %v, want the initializer outside d refused", err)
	}
	if len(m.Mem) != mem || len(m.DynModules()) != 0 || m.lookup("d") != nil {
		t.Errorf("refused module left memory %d (was %d), modules %v", len(m.Mem), mem, m.DynModules())
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
}

// TestLoadDynamicStrings: module code takes its string literals' addresses
// from the module's own table, as image code does from the image's, on
// both engines; an index past the table loads and traps when it runs,
// with the trap image code gets.
func TestLoadDynamicStrings(t *testing.T) {
	base := fileWith(buildFunc("img_str", 0, 2, 0, []obj.Instr{
		{Op: obj.OpAddrString, Dst: 1, Imm: 0, A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 1, A: 1},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}))
	base.Strings = []string{"i"}
	mod := fileWith(
		buildFunc("mod_str", 0, 2, 0, []obj.Instr{
			{Op: obj.OpAddrString, Dst: 1, Imm: 1, A: obj.NoReg},
			{Op: obj.OpLoad, Dst: 1, A: 1},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}),
		buildFunc("mod_bad", 0, 2, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 0, Imm: 1},
			{Op: obj.OpAddrString, Dst: 1, Imm: 2, A: obj.NoReg},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}))
	mod.Strings = []string{"x", "m"}
	mi, mc := compiledPair(t, base)
	for _, m := range []*M{mi, mc} {
		if err := m.LoadDynamic(mod); err != nil {
			t.Fatalf("%v: %v", m.Backend(), err)
		}
		for entry, want := range map[string]int64{"img_str": 'i', "mod_str": 'm'} {
			if v, err := m.Run(entry); err != nil || v != want {
				t.Errorf("%v: %s() = %d, %v; want %d", m.Backend(), entry, v, err, want)
			}
		}
		var tr *Trap
		if _, err := m.Run("mod_bad"); !errors.As(err, &tr) ||
			*tr != (Trap{Kind: TrapBadStringIndex, Msg: "bad string literal index", Func: "mod_bad", PC: 1}) {
			t.Errorf("%v: mod_bad: err = %v, want a bad-string-index trap at pc 1", m.Backend(), err)
		}
	}
}

// TestResetDataModule: ResetData restores a live module's data from the
// module's own initial data, through a snapshot and a restore, counts
// it, and skips it once the module is unloaded.
func TestResetDataModule(t *testing.T) {
	m := loadFile(t, fileWith())
	mod := obj.NewFile("mod")
	mod.Datas["k"] = &obj.Data{Name: "k", Size: 2, Init: []obj.DataInit{{Kind: obj.InitConst, Offset: 1, Val: 5}}}
	mod.AddSym(&obj.Symbol{Name: "k", Kind: obj.SymData, Defined: true})
	if err := m.LoadDynamic(mod); err != nil {
		t.Fatal(err)
	}
	k, _ := m.resolveAddr("k")
	snap := m.Snapshot()
	for round := 0; round < 2; round++ {
		m.Mem[k], m.Mem[k+1] = 9, 9
		if n := m.ResetData([]string{"k", "absent"}); n != 1 {
			t.Errorf("round %d: ResetData reset %d symbols, want 1", round, n)
		}
		if m.Mem[k] != 0 || m.Mem[k+1] != 5 {
			t.Errorf("round %d: k = [%d %d], want [0 5]", round, m.Mem[k], m.Mem[k+1])
		}
		m.Restore(snap)
	}
	if err := m.UnloadDynamic("mod"); err != nil {
		t.Fatal(err)
	}
	if n := m.ResetData([]string{"k"}); n != 0 {
		t.Errorf("ResetData of an unloaded module's data reset %d symbols", n)
	}
}

func TestStackCannotGrowIntoDynamicData(t *testing.T) {
	// A deeply recursive function with a big frame must trap on the
	// stack limit, not write into dynamically loaded data.
	rec := buildFunc("rec", 1, 3, 1024, []obj.Instr{
		{Op: obj.OpBranch, A: 0, Targets: [2]int{1, 4}},
		{Op: obj.OpConst, Dst: 1, Imm: 1},
		{Op: obj.OpBin, Dst: 1, A: 0, B: 1, Tok: int(cmini.MINUS)},
		{Op: obj.OpCall, Dst: 2, Sym: "rec", Args: []obj.Reg{1}, A: obj.NoReg},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	m := loadFile(t, fileWith(rec))
	mod := obj.NewFile("mod")
	mod.Datas["canary"] = &obj.Data{Name: "canary", Size: 4, Init: []obj.DataInit{
		{Kind: obj.InitConst, Offset: 0, Val: 111},
		{Kind: obj.InitConst, Offset: 3, Val: 222},
	}}
	mod.AddSym(&obj.Symbol{Name: "canary", Kind: obj.SymData, Defined: true})
	if err := m.LoadDynamic(mod); err != nil {
		t.Fatal(err)
	}
	canary, ok := m.resolveAddr("canary")
	if !ok {
		t.Fatal("canary not resolvable")
	}
	_, err := m.Run("rec", 1000) // 1000 frames x 1024 words >> 64K stack
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
	if m.Mem[canary] != 111 || m.Mem[canary+3] != 222 {
		t.Error("stack growth corrupted dynamic data")
	}
}
