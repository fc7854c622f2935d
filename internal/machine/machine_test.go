package machine

import (
	"math"
	"strings"
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// Machine tests hand-build IR rather than going through the compiler,
// so they pin down the execution semantics independently of
// internal/compile (which has its own end-to-end tests against this
// package).

// buildFunc assembles a function.
func buildFunc(name string, nargs, nregs, frame int, code []obj.Instr) *obj.Func {
	return &obj.Func{Name: name, NArgs: nargs, NRegs: nregs, Frame: frame, Code: code}
}

func loadFile(t *testing.T, f *obj.File) *M {
	t.Helper()
	img, err := Load(f, DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return New(img)
}

func fileWith(fns ...*obj.Func) *obj.File {
	f := obj.NewFile("test")
	for _, fn := range fns {
		f.Funcs[fn.Name] = fn
		f.AddSym(&obj.Symbol{Name: fn.Name, Kind: obj.SymFunc, Defined: true})
	}
	return f
}

func TestRunSimpleAdd(t *testing.T) {
	add := buildFunc("add", 2, 3, 0, []obj.Instr{
		{Op: obj.OpBin, Dst: 2, A: 0, B: 1, Tok: int(cmini.PLUS)},
		{Op: obj.OpRet, A: 2, HasVal: true},
	})
	m := loadFile(t, fileWith(add))
	v, err := m.Run("add", 30, 12)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("add = %d, want 42", v)
	}
	if m.Executed != 2 {
		t.Errorf("executed %d instrs, want 2", m.Executed)
	}
}

func TestTrapDivideByZero(t *testing.T) {
	div := buildFunc("div", 2, 3, 0, []obj.Instr{
		{Op: obj.OpBin, Dst: 2, A: 0, B: 1, Tok: int(cmini.SLASH)},
		{Op: obj.OpRet, A: 2, HasVal: true},
	})
	m := loadFile(t, fileWith(div))
	_, err := m.Run("div", 1, 0)
	if err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Errorf("err = %v, want divide by zero trap", err)
	}
}

func TestTrapNullDeref(t *testing.T) {
	f := buildFunc("f", 1, 2, 0, []obj.Instr{
		{Op: obj.OpLoad, Dst: 1, A: 0},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	m := loadFile(t, fileWith(f))
	_, err := m.Run("f", 0)
	if err == nil || !strings.Contains(err.Error(), "invalid address") {
		t.Errorf("err = %v, want invalid address trap", err)
	}
}

func TestTrapUndefinedFunction(t *testing.T) {
	f := buildFunc("f", 0, 1, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 0, Sym: "missing"},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	m := loadFile(t, fileWith(f))
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Errorf("err = %v, want undefined function trap", err)
	}
}

func TestTrapStackOverflow(t *testing.T) {
	// f calls itself forever.
	f := buildFunc("f", 0, 1, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 0, Sym: "f"},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	m := loadFile(t, fileWith(f))
	_, err := m.Run("f")
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v, want stack overflow trap", err)
	}
}

func TestTrapStepLimit(t *testing.T) {
	loop := buildFunc("loop", 0, 1, 0, []obj.Instr{
		{Op: obj.OpJump, Targets: [2]int{0}},
	})
	m := loadFile(t, fileWith(loop))
	m.StepLimit = 1000
	_, err := m.Run("loop")
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit trap", err)
	}
}

// TestStepLimitBoundsEachRun: StepLimit bounds each top-level Run, as
// Fuel does, so a long-lived machine whose Executed counter has passed
// the limit keeps serving on both engines. A limit near MaxInt64
// saturates instead of wrapping, and 0 takes the default instead of
// trapping at once.
func TestStepLimitBoundsEachRun(t *testing.T) {
	for _, tc := range []struct {
		name            string
		limit, executed int64
	}{
		{"past the limit", 1000, 1 << 32},
		{"saturating", math.MaxInt64, 1 << 40},
		{"default", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mi, mc := compiledPair(t, fibProgram())
			for _, m := range []*M{mi, mc} {
				m.StepLimit, m.Executed = tc.limit, tc.executed
			}
			vi, ei := mi.Run("fib", 5)
			vc, ec := mc.Run("fib", 5)
			if ei != nil || vi != 5 {
				t.Fatalf("fib(5) = %d, %v; want 5", vi, ei)
			}
			assertBackendParity(t, mi, mc, vi, vc, ei, ec)
		})
	}

	// Within one Run the limit still fires, under its own message.
	m := loadFile(t, fileWith(spinFunc("spin")))
	m.StepLimit, m.Executed = 1000, 1<<32
	_, err := m.Run("spin")
	if err == nil || !strings.Contains(err.Error(), "step limit exceeded") {
		t.Fatalf("err = %v, want step limit trap", err)
	}
	if m.Executed != 1<<32+1000 {
		t.Fatalf("trapped at Executed %d, want %d", m.Executed, int64(1<<32+1000))
	}
}

func TestTrapIndirectToBadAddress(t *testing.T) {
	f := buildFunc("f", 1, 2, 0, []obj.Instr{
		{Op: obj.OpCallInd, Dst: 1, A: 0},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	m := loadFile(t, fileWith(f))
	_, err := m.Run("f", 12345)
	if err == nil || !strings.Contains(err.Error(), "non-function address") {
		t.Errorf("err = %v, want non-function address trap", err)
	}
}

func TestCallCostsDirectVsIndirect(t *testing.T) {
	callee := buildFunc("callee", 0, 1, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 0, Imm: 7},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	direct := buildFunc("direct", 0, 1, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 0, Sym: "callee"},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	indirect := buildFunc("indirect", 0, 2, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 0, Sym: "callee"},
		{Op: obj.OpCallInd, Dst: 1, A: 0},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	costs := DefaultCosts()
	costs.ICacheBytes = 0 // disable cache noise for exact accounting
	f := fileWith(callee, direct, indirect)
	img, err := Load(f, costs)
	if err != nil {
		t.Fatal(err)
	}
	m1 := New(img)
	if _, err := m1.Run("direct"); err != nil {
		t.Fatal(err)
	}
	m2 := New(img)
	if _, err := m2.Run("indirect"); err != nil {
		t.Fatal(err)
	}
	if m2.Cycles-m1.Cycles != costs.Indirect+costs.Instr {
		// indirect executes one extra AddrGlobal instr plus the penalty.
		t.Errorf("indirect %d vs direct %d cycles; want difference %d",
			m2.Cycles, m1.Cycles, costs.Indirect+costs.Instr)
	}
	if m1.Calls != 1 || m2.IndCalls != 1 {
		t.Errorf("call counters: direct=%d indirect=%d", m1.Calls, m2.IndCalls)
	}
}

func TestICacheCountsMisses(t *testing.T) {
	// A function bigger than the I-cache, executed twice: every line
	// misses on a cold cache, then conflicts evict everything.
	var code []obj.Instr
	n := 4096 // 16 KB of text at 4 bytes/instr vs 8 KB cache
	for i := 0; i < n; i++ {
		code = append(code, obj.Instr{Op: obj.OpConst, Dst: 0, Imm: int64(i)})
	}
	code = append(code, obj.Instr{Op: obj.OpRet, A: 0, HasVal: true})
	big := buildFunc("big", 0, 1, 0, code)
	m := loadFile(t, fileWith(big))
	if _, err := m.Run("big"); err != nil {
		t.Fatal(err)
	}
	if m.ICacheMiss == 0 {
		t.Error("expected I-cache misses")
	}
	// Every miss is charged either the sequential-prefetch penalty or the
	// full penalty.
	costs := DefaultCosts()
	min := m.ICacheMiss * costs.ICacheSeqMiss
	max := m.ICacheMiss * costs.ICacheMiss
	if m.Stalls < min || m.Stalls > max {
		t.Errorf("stalls %d outside [%d, %d] for %d misses", m.Stalls, min, max, m.ICacheMiss)
	}
	if m.Cycles <= m.Executed {
		t.Error("cycles should exceed executed instructions due to stalls")
	}
}

func TestICacheSequentialPrefetchCheaper(t *testing.T) {
	// Straight-line code misses cheaply (sequential prefetch); the same
	// amount of code executed via scattered jumps pays full misses.
	n := 512
	var straight []obj.Instr
	for i := 0; i < n; i++ {
		straight = append(straight, obj.Instr{Op: obj.OpConst, Dst: 0, Imm: 1})
	}
	straight = append(straight, obj.Instr{Op: obj.OpRet, A: 0, HasVal: true})
	// Scattered: jump forward by 3 blocks each time, wrapping, so that
	// consecutive fetches are never on adjacent lines.
	var scattered []obj.Instr
	for i := 0; i < n; i++ {
		next := (i + 37) % n
		scattered = append(scattered, obj.Instr{Op: obj.OpJump, Targets: [2]int{next}})
	}
	// Escape hatch: rewrite one slot to return.
	scattered[37] = obj.Instr{Op: obj.OpRet, A: 0, HasVal: true}

	costs := DefaultCosts()
	costs.ICacheBytes = 256 // tiny: everything misses
	imgS, err := Load(fileWith(buildFunc("s", 0, 1, 0, straight)), costs)
	if err != nil {
		t.Fatal(err)
	}
	ms := New(imgS)
	if _, err := ms.Run("s"); err != nil {
		t.Fatal(err)
	}
	perMissStraight := float64(ms.Stalls) / float64(ms.ICacheMiss)
	if perMissStraight > float64(costs.ICacheSeqMiss)+1 {
		t.Errorf("straight-line code pays %.1f per miss, want ~%d (sequential)",
			perMissStraight, costs.ICacheSeqMiss)
	}
}

func TestICacheSmallLoopHits(t *testing.T) {
	// A small hot loop should have a high hit rate.
	loop := buildFunc("loop", 1, 3, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 1},                          // 0
		{Op: obj.OpBin, Dst: 0, A: 0, B: 1, Tok: int(cmini.MINUS)}, // 1
		{Op: obj.OpBranch, A: 0, Targets: [2]int{1, 3}},            // 2
		{Op: obj.OpRet, A: 0, HasVal: true},                        // 3
	})
	m := loadFile(t, fileWith(loop))
	if _, err := m.Run("loop", 10000); err != nil {
		t.Fatal(err)
	}
	hitRate := 1 - float64(m.ICacheMiss)/float64(m.ICacheRefs)
	if hitRate < 0.999 {
		t.Errorf("hot loop hit rate %f, want ~1", hitRate)
	}
}

func TestResetRestoresMemoryAndStats(t *testing.T) {
	f := obj.NewFile("t")
	f.Datas["g"] = &obj.Data{Name: "g", Size: 1, Init: []obj.DataInit{{Kind: obj.InitConst, Val: 5}}}
	f.AddSym(&obj.Symbol{Name: "g", Kind: obj.SymData, Defined: true})
	set := buildFunc("set", 1, 2, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: "g"},
		{Op: obj.OpStore, A: 1, B: 0},
		{Op: obj.OpRet, A: obj.NoReg},
	})
	get := buildFunc("get", 0, 2, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 0, Sym: "g"},
		{Op: obj.OpLoad, Dst: 1, A: 0},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	for _, fn := range []*obj.Func{set, get} {
		f.Funcs[fn.Name] = fn
		f.AddSym(&obj.Symbol{Name: fn.Name, Kind: obj.SymFunc, Defined: true})
	}
	m := loadFile(t, f)
	if _, err := m.Run("set", 99); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	v, err := m.Run("get")
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("after reset g = %d, want 5", v)
	}
}

func TestLoadErrors(t *testing.T) {
	// Unresolved AddrGlobal.
	f := fileWith(buildFunc("f", 0, 1, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 0, Sym: "nothing"},
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	if _, err := Load(f, DefaultCosts()); err == nil ||
		!strings.Contains(err.Error(), "unresolved symbol") {
		t.Errorf("err = %v, want unresolved symbol", err)
	}
	// Unresolved data initializer.
	f2 := obj.NewFile("t")
	f2.Datas["p"] = &obj.Data{Name: "p", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitSym, Sym: "ghost"}}}
	if _, err := Load(f2, DefaultCosts()); err == nil ||
		!strings.Contains(err.Error(), "unresolved symbol") {
		t.Errorf("err = %v, want unresolved data symbol", err)
	}
	// Missing entry point.
	f3 := fileWith()
	img, err := Load(f3, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(img).Run("main"); err == nil {
		t.Error("running missing entry should fail")
	}
}

func TestDataInitStringAndSym(t *testing.T) {
	f := obj.NewFile("t")
	f.Strings = []string{"hi"}
	f.Datas["msg"] = &obj.Data{Name: "msg", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitString, Index: 0}}}
	f.AddSym(&obj.Symbol{Name: "msg", Kind: obj.SymData, Defined: true})
	// read = mem[mem[&msg]] (first char of the string).
	read := buildFunc("read", 0, 3, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 0, Sym: "msg"},
		{Op: obj.OpLoad, Dst: 1, A: 0},
		{Op: obj.OpLoad, Dst: 2, A: 1},
		{Op: obj.OpRet, A: 2, HasVal: true},
	})
	f.Funcs["read"] = read
	f.AddSym(&obj.Symbol{Name: "read", Kind: obj.SymFunc, Defined: true})
	m := loadFile(t, f)
	v, err := m.Run("read")
	if err != nil {
		t.Fatal(err)
	}
	if v != 'h' {
		t.Errorf("read = %d, want 'h'", v)
	}
	s, err := m.ReadCString(m.Mem[m.Img.GlobalAddr["msg"]])
	if err != nil {
		t.Fatal(err)
	}
	if s != "hi" {
		t.Errorf("ReadCString = %q, want hi", s)
	}
}

// TestDataInitRuns: initializers out of offset order, several of one
// word (the last wins, a zero included), zero words inside a string,
// and neighbouring globals whose words touch all lay out as the dense
// reference does, and an initializer outside its object is refused.
func TestDataInitRuns(t *testing.T) {
	f := obj.NewFile("t")
	f.Strings = []string{"a\x00b", "", "cd"}
	f.Datas["a"] = &obj.Data{Name: "a", Size: 8, Init: []obj.DataInit{
		{Offset: 5, Kind: obj.InitConst, Val: 50},
		{Offset: 2, Kind: obj.InitConst, Val: 20},
		{Offset: 7, Kind: obj.InitConst, Val: 70},
		{Offset: 2, Kind: obj.InitSym, Sym: "b"},
		{Offset: 6, Kind: obj.InitConst, Val: 60},
		{Offset: 5, Kind: obj.InitConst, Val: 0},
		{Offset: 0, Kind: obj.InitString, Index: 2},
	}}
	f.Datas["b"] = &obj.Data{Name: "b", Size: 3, Init: []obj.DataInit{
		{Offset: 0, Kind: obj.InitConst, Val: 1},
		{Offset: 2, Kind: obj.InitString, Index: 0},
	}}
	img, err := Load(f, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	want := DenseInit(img)
	m := New(img)
	for i, w := range want {
		if m.Mem[i] != w {
			t.Errorf("word %d = %d, want %d", i, m.Mem[i], w)
		}
	}
	var words int
	for i, r := range img.init {
		words += len(r.words)
		if i > 0 && r.addr <= img.init[i-1].addr+int64(len(img.init[i-1].words)) {
			t.Errorf("run %d at %d touches or overlaps the run before it", i, r.addr)
		}
	}
	var nonzero int
	for _, w := range want {
		if w != 0 {
			nonzero++
		}
	}
	if words != nonzero {
		t.Errorf("runs hold %d words, the image has %d nonzero", words, nonzero)
	}

	f.Datas["b"].Init = append(f.Datas["b"].Init, obj.DataInit{Offset: 3, Kind: obj.InitConst, Val: 1})
	if _, err := Load(f, DefaultCosts()); err == nil || !strings.Contains(err.Error(), "initializer offset 3 outside its 3 words") {
		t.Errorf("err = %v, want the initializer outside b refused", err)
	}
}

func TestStopWatch(t *testing.T) {
	// enter/exit around some busy work.
	busy := buildFunc("busy", 0, 2, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 0, Sym: "__tick_enter"},
		{Op: obj.OpConst, Dst: 1, Imm: 1},
		{Op: obj.OpConst, Dst: 1, Imm: 2},
		{Op: obj.OpConst, Dst: 1, Imm: 3},
		{Op: obj.OpCall, Dst: 0, Sym: "__tick_exit"},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	m := loadFile(t, fileWith(busy))
	w := InstallStopWatch(m)
	if _, err := m.Run("busy"); err != nil {
		t.Fatal(err)
	}
	if w.Windows != 1 {
		t.Fatalf("windows = %d, want 1", w.Windows)
	}
	if w.Total <= 0 {
		t.Errorf("total window cycles = %d, want > 0", w.Total)
	}
	if w.PerWindow() != float64(w.Total) {
		t.Errorf("PerWindow = %f, want %f", w.PerWindow(), float64(w.Total))
	}
}

func TestTextSizeAccounting(t *testing.T) {
	a := buildFunc("a", 0, 1, 0, make([]obj.Instr, 10))
	for i := range a.Code {
		a.Code[i] = obj.Instr{Op: obj.OpConst, Dst: 0, Imm: 0}
	}
	a.Code[9] = obj.Instr{Op: obj.OpRet, A: 0, HasVal: true}
	b := buildFunc("b", 0, 1, 0, []obj.Instr{{Op: obj.OpRet, A: 0, HasVal: true}})
	costs := DefaultCosts()
	img, err := Load(fileWith(a, b), costs)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(10*costs.InstrBytes+costs.FuncPad) + int64(1*costs.InstrBytes+costs.FuncPad)
	if img.TextSize != want {
		t.Errorf("TextSize = %d, want %d", img.TextSize, want)
	}
}
