package obj

import (
	"reflect"
	"testing"
	"testing/quick"

	"knit/internal/cmini"
)

func TestSymbolTable(t *testing.T) {
	f := NewFile("a.o")
	f.AddSym(&Symbol{Name: "serve_web", Kind: SymFunc}) // undefined
	f.AddSym(&Symbol{Name: "serve_web", Kind: SymFunc, Defined: true})
	if s := f.Sym("serve_web"); s == nil || !s.Defined {
		t.Error("defined symbol should replace undefined entry")
	}
	f.AddSym(&Symbol{Name: "helper", Kind: SymFunc, Defined: true, Local: true})
	f.AddSym(&Symbol{Name: "fopen", Kind: SymFunc})
	exp := f.Exports()
	if len(exp) != 1 || exp[0] != "serve_web" {
		t.Errorf("Exports = %v", exp)
	}
	imp := f.Imports()
	if len(imp) != 1 || imp[0] != "fopen" {
		t.Errorf("Imports = %v", imp)
	}
}

func TestRenameRewritesEverything(t *testing.T) {
	f := NewFile("log.o")
	f.AddSym(&Symbol{Name: "serve_web", Kind: SymFunc, Defined: true})
	f.AddSym(&Symbol{Name: "serve_unlogged", Kind: SymFunc})
	f.Funcs["serve_web"] = &Func{Name: "serve_web", Code: []Instr{
		{Op: OpCall, Sym: "serve_unlogged"},
		{Op: OpAddrGlobal, Sym: "log_state"},
		{Op: OpRet},
	}}
	f.Datas["log_state"] = &Data{Name: "log_state", Size: 1,
		Init: []DataInit{{Kind: InitSym, Sym: "serve_web"}}}
	f.AddSym(&Symbol{Name: "log_state", Kind: SymData, Defined: true, Local: true})

	Rename(f, map[string]string{
		"serve_web":      "serve_logged",
		"serve_unlogged": "real_serve_web",
	})
	if f.Sym("serve_web") != nil {
		t.Error("old name still in symbol table")
	}
	fn := f.Funcs["serve_logged"]
	if fn == nil {
		t.Fatal("function not renamed in Funcs map")
	}
	if fn.Code[0].Sym != "real_serve_web" {
		t.Errorf("call target = %q", fn.Code[0].Sym)
	}
	if fn.Code[1].Sym != "log_state" {
		t.Errorf("unrelated symbol changed: %q", fn.Code[1].Sym)
	}
	if f.Datas["log_state"].Init[0].Sym != "serve_logged" {
		t.Errorf("data init not renamed: %q", f.Datas["log_state"].Init[0].Sym)
	}
}

func TestAppendRemapsStrings(t *testing.T) {
	a := NewFile("a.o")
	a.Strings = []string{"alpha"}
	a.Funcs["fa"] = &Func{Name: "fa", Code: []Instr{{Op: OpAddrString, Imm: 0}}}
	a.AddSym(&Symbol{Name: "fa", Kind: SymFunc, Defined: true})
	b := NewFile("b.o")
	b.Strings = []string{"beta"}
	b.Funcs["fb"] = &Func{Name: "fb", Code: []Instr{{Op: OpAddrString, Imm: 0}}}
	b.AddSym(&Symbol{Name: "fb", Kind: SymFunc, Defined: true})

	m := NewFile("merged")
	Append(m, a)
	Append(m, b)
	if len(m.Strings) != 2 {
		t.Fatalf("strings = %v", m.Strings)
	}
	if m.Funcs["fb"].Code[0].Imm != 1 {
		t.Errorf("fb string index = %d, want 1", m.Funcs["fb"].Code[0].Imm)
	}
	if m.Funcs["fa"].Code[0].Imm != 0 {
		t.Errorf("fa string index = %d, want 0", m.Funcs["fa"].Code[0].Imm)
	}
}

// TestAppendLeavesSourcesUnchanged: dst takes its own copy of every
// symbol, so resolving in dst a symbol that an earlier source left
// undefined changes no source, and it copies every function and data
// object whose string references it rebases, so rebasing changes no
// source either. Every other function and data object is shared with
// its source.
func TestAppendLeavesSourcesUnchanged(t *testing.T) {
	user := NewFile("user.o")
	user.AddSym(&Symbol{Name: "x", Kind: SymData})
	user.AddSym(&Symbol{Name: "f", Kind: SymFunc, Defined: true})
	user.Funcs["f"] = &Func{Name: "f", Code: []Instr{{Op: OpAddrGlobal, Sym: "x"}, {Op: OpAddrString, Imm: 0}, {Op: OpRet}}}
	user.AddSym(&Symbol{Name: "u", Kind: SymData, Defined: true})
	user.Datas["u"] = &Data{Name: "u", Size: 1, Init: []DataInit{{Kind: InitString, Index: 0}}}
	user.Strings = []string{"user"}
	def := NewFile("def.o")
	def.AddSym(&Symbol{Name: "x", Kind: SymData, Defined: true})
	def.Datas["x"] = &Data{Name: "x", Size: 1, Init: []DataInit{{Kind: InitString, Index: 0}}}
	def.AddSym(&Symbol{Name: "y", Kind: SymData, Defined: true})
	def.Datas["y"] = &Data{Name: "y", Size: 1, Init: []DataInit{{Kind: InitConst, Val: 7}}}
	def.AddSym(&Symbol{Name: "g", Kind: SymFunc, Defined: true})
	def.Funcs["g"] = &Func{Name: "g", Code: []Instr{{Op: OpAddrString, Imm: 0}, {Op: OpRet}}}
	def.AddSym(&Symbol{Name: "h", Kind: SymFunc, Defined: true})
	def.Funcs["h"] = &Func{Name: "h", Code: []Instr{{Op: OpAddrGlobal, Sym: "y"}, {Op: OpRet}}}
	def.Strings = []string{"def"}
	wantUser, wantDef := user.Clone(), def.Clone()

	m := NewFile("merged")
	Append(m, user)
	Append(m, def)
	if s := m.Sym("x"); s == nil || !s.Defined {
		t.Fatalf("merged x = %+v, want defined", s)
	}
	if !reflect.DeepEqual(user, wantUser) {
		t.Errorf("appending def changed user: x = %+v", user.Sym("x"))
	}
	if !reflect.DeepEqual(def, wantDef) {
		t.Error("appending def changed def")
	}
	if m.Sym("f") == user.Sym("f") {
		t.Error("merged symbol f is user's, want a copy")
	}
	// user's string indices need no rebase (its strings come first), and
	// def's functions and data that name no string need none either.
	for name, src := range map[string]*File{"f": user, "h": def} {
		if m.Funcs[name] != src.Funcs[name] {
			t.Errorf("merged func %s is a copy, want the source's", name)
		}
	}
	for name, src := range map[string]*File{"u": user, "y": def} {
		if m.Datas[name] != src.Datas[name] {
			t.Errorf("merged data %s is a copy, want the source's", name)
		}
	}
	if m.Funcs["g"] == def.Funcs["g"] || m.Funcs["g"].Code[0].Imm != 1 {
		t.Errorf("merged func g = %p with string index %d, want a copy rebased to 1", m.Funcs["g"], m.Funcs["g"].Code[0].Imm)
	}
	if m.Datas["x"] == def.Datas["x"] || m.Datas["x"].Init[0].Index != 1 {
		t.Errorf("merged data x = %p with string index %d, want a copy rebased to 1", m.Datas["x"], m.Datas["x"].Init[0].Index)
	}
}

func TestAppendRenamesCollidingLocals(t *testing.T) {
	mk := func(file string, v int64) *File {
		f := NewFile(file)
		f.AddSym(&Symbol{Name: "state", Kind: SymData, Defined: true, Local: true})
		f.Datas["state"] = &Data{Name: "state", Size: 1, Local: true,
			Init: []DataInit{{Kind: InitConst, Val: v}}}
		f.AddSym(&Symbol{Name: "get_" + file, Kind: SymFunc, Defined: true})
		f.Funcs["get_"+file] = &Func{Name: "get_" + file, Code: []Instr{
			{Op: OpAddrGlobal, Sym: "state"},
			{Op: OpAddrString, Imm: 0},
			{Op: OpRet},
		}}
		f.Strings = []string{file}
		return f
	}
	m := NewFile("merged")
	Append(m, mk("a", 1))
	b := mk("b", 2)
	Append(m, b)
	if !reflect.DeepEqual(b, mk("b", 2)) {
		t.Error("renaming b's colliding static changed b")
	}
	if len(m.Datas) != 2 {
		t.Fatalf("datas = %d, want 2 distinct statics", len(m.Datas))
	}
	// b's accessor must reference b's renamed static.
	fb := m.Funcs["get_b"]
	renamed := fb.Code[0].Sym
	if renamed == "state" {
		t.Error("b's static reference not redirected after collision rename")
	}
	if d, ok := m.Datas[renamed]; !ok || d.Init[0].Val != 2 {
		t.Errorf("b's static %q missing or wrong value", renamed)
	}
	if fb.Code[1].Imm != 1 {
		t.Errorf("b's string index = %d, want 1", fb.Code[1].Imm)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := NewFile("a.o")
	f.Funcs["f"] = &Func{Name: "f", Code: []Instr{{Op: OpCall, Sym: "x"}}}
	f.AddSym(&Symbol{Name: "f", Kind: SymFunc, Defined: true})
	cp := f.Clone()
	Rename(cp, map[string]string{"f": "g", "x": "y"})
	if f.Funcs["f"].Code[0].Sym != "x" {
		t.Error("rename of clone mutated original")
	}
}

// TestQuickEvalBinMatchesGo checks the ALU against Go's own semantics
// for defined cases.
func TestQuickEvalBinMatchesGo(t *testing.T) {
	fn := func(a, b int64) bool {
		type check struct {
			op   cmini.Tok
			want func() int64
			skip bool
		}
		checks := []check{
			{cmini.PLUS, func() int64 { return a + b }, false},
			{cmini.MINUS, func() int64 { return a - b }, false},
			{cmini.STAR, func() int64 { return a * b }, false},
			{cmini.SLASH, func() int64 {
				if b == 0 {
					return 0
				}
				return a / b
			}, b == 0},
			{cmini.AMP, func() int64 { return a & b }, false},
			{cmini.PIPE, func() int64 { return a | b }, false},
			{cmini.CARET, func() int64 { return a ^ b }, false},
			{cmini.SHL, func() int64 { return a << (uint64(b) & 63) }, false},
		}
		for _, c := range checks {
			if c.skip {
				continue
			}
			got, err := EvalBin(c.op, a, b)
			if err != nil || got != c.want() {
				return false
			}
		}
		// Comparisons return exactly 0 or 1.
		for _, op := range []cmini.Tok{cmini.LT, cmini.GT, cmini.LE, cmini.GE, cmini.EQ, cmini.NE} {
			v, err := EvalBin(op, a, b)
			if err != nil || (v != 0 && v != 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := EvalBin(cmini.SLASH, 1, 0); err != ErrDivideByZero {
		t.Errorf("div by zero: %v", err)
	}
	if _, err := EvalBin(cmini.PERCENT, 1, 0); err != ErrDivideByZero {
		t.Errorf("mod by zero: %v", err)
	}
	if _, err := EvalBin(cmini.LBRACE, 1, 2); err == nil {
		t.Error("bad op should error")
	}
	if _, err := EvalUn(cmini.PLUS, 1); err == nil {
		t.Error("bad unary op should error")
	}
}
