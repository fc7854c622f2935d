package machine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/obj"
)

// These tests hold the compiled backend to the interpreter's
// contract on hand-built IR: same values, same memory, same traps (kind,
// message, function, pc), same instruction and call counts, and the
// exact cycle relation Cycles(compiled) == Cycles(interp) − Stalls.
// The repo-root backend_differential_test.go covers whole built
// programs; FuzzBackendEquivalence covers lifecycle interleavings.

// compiledPair loads f twice: an interpreter machine and a compiled one.
func compiledPair(t *testing.T, f *obj.File) (mi, mc *M) {
	t.Helper()
	mi = loadFile(t, f)
	mc = loadFile(t, f)
	mc.SetBackend(BackendCompiled)
	return mi, mc
}

// assertBackendParity compares everything the two backends must agree
// on after running the same workload.
func assertBackendParity(t *testing.T, mi, mc *M, vi, vc int64, ei, ec error) {
	t.Helper()
	if vi != vc {
		t.Errorf("value: interp=%d compiled=%d", vi, vc)
	}
	assertSameError(t, ei, ec)
	if mi.Executed != mc.Executed {
		t.Errorf("Executed: interp=%d compiled=%d", mi.Executed, mc.Executed)
	}
	if mi.Calls != mc.Calls || mi.IndCalls != mc.IndCalls || mi.BuiltinCnt != mc.BuiltinCnt {
		t.Errorf("calls: interp=(%d,%d,%d) compiled=(%d,%d,%d)",
			mi.Calls, mi.IndCalls, mi.BuiltinCnt, mc.Calls, mc.IndCalls, mc.BuiltinCnt)
	}
	if mc.Stalls != 0 || mc.ICacheRefs != 0 || mc.ICacheMiss != 0 {
		t.Errorf("compiled backend modeled the I-cache: stalls=%d refs=%d miss=%d",
			mc.Stalls, mc.ICacheRefs, mc.ICacheMiss)
	}
	if mc.Cycles != mi.Cycles-mi.Stalls {
		t.Errorf("cycle relation: compiled=%d, interp−stalls=%d−%d=%d",
			mc.Cycles, mi.Cycles, mi.Stalls, mi.Cycles-mi.Stalls)
	}
	if len(mi.Mem) != len(mc.Mem) {
		t.Fatalf("memory size: interp=%d compiled=%d", len(mi.Mem), len(mc.Mem))
	}
	for i := range mi.Mem {
		if mi.Mem[i] != mc.Mem[i] {
			t.Fatalf("memory diverges at %d: interp=%d compiled=%d", i, mi.Mem[i], mc.Mem[i])
		}
	}
}

func assertSameError(t *testing.T, ei, ec error) {
	t.Helper()
	if (ei == nil) != (ec == nil) {
		t.Fatalf("error: interp=%v compiled=%v", ei, ec)
	}
	if ei == nil {
		return
	}
	if ei.Error() != ec.Error() {
		t.Errorf("error text: interp=%q compiled=%q", ei, ec)
	}
	var ti, tc *Trap
	if errors.As(ei, &ti) != errors.As(ec, &tc) {
		t.Fatalf("trap-ness differs: interp=%v compiled=%v", ei, ec)
	}
	if ti != nil && (ti.Kind != tc.Kind || ti.Func != tc.Func || ti.PC != tc.PC || ti.Unit != tc.Unit) {
		t.Errorf("trap: interp=%+v compiled=%+v", *ti, *tc)
	}
}

// runBoth runs one entry on a fresh pair and checks parity.
func runBoth(t *testing.T, f *obj.File, setup func(*M), entry string, args ...int64) {
	t.Helper()
	mi, mc := compiledPair(t, f)
	if setup != nil {
		setup(mi)
		setup(mc)
	}
	vi, ei := mi.Run(entry, args...)
	vc, ec := mc.Run(entry, args...)
	assertBackendParity(t, mi, mc, vi, vc, ei, ec)
}

// sumLoopProgram: sum(n) = 1+2+...+n with a compare-and-branch loop —
// exercises the fused cmp+branch terminator and const+ALU pairs.
func sumLoopProgram() *obj.File {
	return fileWith(buildFunc("sum", 1, 5, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 0},                       // s = 0
		{Op: obj.OpConst, Dst: 2, Imm: 1},                       // i = 1
		{Op: obj.OpBin, Dst: 3, A: 2, B: 0, Tok: int(cmini.GT)}, // i > n
		{Op: obj.OpBranch, A: 3, Targets: [2]int{8, 4}},
		{Op: obj.OpBin, Dst: 1, A: 1, B: 2, Tok: int(cmini.PLUS)}, // s += i
		{Op: obj.OpConst, Dst: 4, Imm: 1},
		{Op: obj.OpBin, Dst: 2, A: 2, B: 4, Tok: int(cmini.PLUS)}, // i++
		{Op: obj.OpJump, Targets: [2]int{2}},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}))
}

// fibProgram: naive recursive fib — exercises calls, recursion depth,
// and fuel expiry inside deeply nested frames.
func fibProgram() *obj.File {
	return fileWith(buildFunc("fib", 1, 4, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 2},
		{Op: obj.OpBin, Dst: 2, A: 0, B: 1, Tok: int(cmini.LT)},
		{Op: obj.OpBranch, A: 2, Targets: [2]int{3, 4}},
		{Op: obj.OpRet, A: 0, HasVal: true},
		{Op: obj.OpConst, Dst: 1, Imm: 1},
		{Op: obj.OpBin, Dst: 2, A: 0, B: 1, Tok: int(cmini.MINUS)},
		{Op: obj.OpCall, Dst: 2, Sym: "fib", Args: []obj.Reg{2}},
		{Op: obj.OpConst, Dst: 1, Imm: 2},
		{Op: obj.OpBin, Dst: 3, A: 0, B: 1, Tok: int(cmini.MINUS)},
		{Op: obj.OpCall, Dst: 3, Sym: "fib", Args: []obj.Reg{3}},
		{Op: obj.OpBin, Dst: 1, A: 2, B: 3, Tok: int(cmini.PLUS)},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}))
}

// memProgram: globals, string literals, frame slots, and stores — the
// fused address+load/store paths.
func memProgram() *obj.File {
	f := fileWith(buildFunc("memops", 0, 6, 2, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 9},
		{Op: obj.OpAddrLocal, Dst: 0, Imm: 0},
		{Op: obj.OpStore, A: 0, B: 1}, // frame[0] = 9
		{Op: obj.OpAddrLocal, Dst: 2, Imm: 1},
		{Op: obj.OpStore, A: 2, B: 0}, // frame[1] = &frame[0]
		{Op: obj.OpAddrLocal, Dst: 3, Imm: 0},
		{Op: obj.OpLoad, Dst: 4, A: 3}, // r4 = frame[0]
		{Op: obj.OpAddrGlobal, Dst: 0, Sym: "g", A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 5, A: 0}, // r5 = g[0]
		{Op: obj.OpBin, Dst: 4, A: 4, B: 5, Tok: int(cmini.PLUS)},
		{Op: obj.OpAddrString, Dst: 0, Imm: 0, A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 5, A: 0}, // 'K'
		{Op: obj.OpBin, Dst: 4, A: 4, B: 5, Tok: int(cmini.PLUS)},
		{Op: obj.OpAddrGlobal, Dst: 0, Sym: "g", A: obj.NoReg},
		{Op: obj.OpStore, A: 0, B: 4}, // g[0] = result
		{Op: obj.OpRet, A: 4, HasVal: true},
	}))
	f.Strings = []string{"Knit"}
	f.Datas["g"] = &obj.Data{Name: "g", Size: 2, Init: []obj.DataInit{{Kind: obj.InitConst, Val: 5}}}
	f.AddSym(&obj.Symbol{Name: "g", Kind: obj.SymData, Defined: true})
	return f
}

// indirectProgram: function address taken, then called indirectly.
func indirectProgram() *obj.File {
	return fileWith(
		buildFunc("seven", 0, 1, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 0, Imm: 7},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}),
		buildFunc("callit", 0, 2, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 0, Sym: "seven", A: obj.NoReg},
			{Op: obj.OpCallInd, Dst: 1, A: 0},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}),
	)
}

func TestBackendParityPrograms(t *testing.T) {
	t.Run("sum", func(t *testing.T) { runBoth(t, sumLoopProgram(), nil, "sum", 10) })
	t.Run("sum0", func(t *testing.T) { runBoth(t, sumLoopProgram(), nil, "sum", 0) })
	t.Run("fib", func(t *testing.T) { runBoth(t, fibProgram(), nil, "fib", 10) })
	t.Run("memops", func(t *testing.T) { runBoth(t, memProgram(), nil, "memops") })
	t.Run("indirect", func(t *testing.T) { runBoth(t, indirectProgram(), nil, "callit") })
	t.Run("nested", func(t *testing.T) { runBoth(t, nestedProgram(), nil, "outer", 41) })
	t.Run("builtin", func(t *testing.T) {
		f := fileWith(buildFunc("f", 0, 2, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 1, Imm: 5},
			{Op: obj.OpCall, Dst: 0, Sym: "__dev", Args: []obj.Reg{1}},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}))
		runBoth(t, f, func(m *M) {
			m.RegisterBuiltin("__dev", func(_ *M, args []int64) (int64, error) { return args[0] * 3, nil })
		}, "f")
	})
}

func TestBackendParityTraps(t *testing.T) {
	t.Run("divzero", func(t *testing.T) {
		f := fileWith(buildFunc("div", 2, 3, 0, []obj.Instr{
			{Op: obj.OpBin, Dst: 2, A: 0, B: 1, Tok: int(cmini.SLASH)},
			{Op: obj.OpRet, A: 2, HasVal: true},
		}))
		runBoth(t, f, nil, "div", 10, 0)
	})
	t.Run("badload", func(t *testing.T) {
		f := fileWith(buildFunc("f", 1, 2, 0, []obj.Instr{
			{Op: obj.OpLoad, Dst: 1, A: 0},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}))
		runBoth(t, f, nil, "f", 3)
		runBoth(t, f, nil, "f", 1<<40)
	})
	t.Run("badstore", func(t *testing.T) {
		f := fileWith(buildFunc("f", 1, 2, 0, []obj.Instr{
			{Op: obj.OpStore, A: 0, B: 0},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}))
		runBoth(t, f, nil, "f", 2)
	})
	t.Run("undefined-call", func(t *testing.T) {
		f := fileWith(buildFunc("f", 0, 1, 0, []obj.Instr{
			{Op: obj.OpCall, Dst: 0, Sym: "nowhere"},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}))
		runBoth(t, f, nil, "f")
	})
	t.Run("indirect-nonfunc", func(t *testing.T) {
		f := fileWith(buildFunc("f", 1, 2, 0, []obj.Instr{
			{Op: obj.OpCallInd, Dst: 1, A: 0},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}))
		runBoth(t, f, nil, "f", 12345)
	})
	t.Run("recursion-overflow", func(t *testing.T) {
		f := fileWith(buildFunc("rec", 0, 1, 0, []obj.Instr{
			{Op: obj.OpCall, Dst: 0, Sym: "rec"},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}))
		runBoth(t, f, nil, "rec")
	})
	t.Run("args-mismatch", func(t *testing.T) {
		f := fileWith(
			buildFunc("two", 2, 3, 0, []obj.Instr{{Op: obj.OpRet, A: 0, HasVal: true}}),
			buildFunc("f", 0, 2, 0, []obj.Instr{
				{Op: obj.OpConst, Dst: 1, Imm: 1},
				{Op: obj.OpCall, Dst: 0, Sym: "two", Args: []obj.Reg{1}},
				{Op: obj.OpRet, A: 0, HasVal: true},
			}),
		)
		runBoth(t, f, nil, "f")
	})
	t.Run("fall-off-end", func(t *testing.T) {
		f := fileWith(buildFunc("f", 0, 1, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 0, Imm: 1},
		}))
		runBoth(t, f, nil, "f")
	})
	t.Run("trap-mid-fused-load-call", func(t *testing.T) {
		// The load half of a fused load+call traps: Executed must count
		// the load but not the pre-counted call.
		f := fileWith(
			buildFunc("callee", 1, 2, 0, []obj.Instr{{Op: obj.OpRet, A: 0, HasVal: true}}),
			buildFunc("f", 1, 3, 0, []obj.Instr{
				{Op: obj.OpLoad, Dst: 1, A: 0},
				{Op: obj.OpCall, Dst: 2, Sym: "callee", Args: []obj.Reg{1}},
				{Op: obj.OpRet, A: 2, HasVal: true},
			}),
		)
		runBoth(t, f, nil, "f", 3)  // load traps
		runBoth(t, f, nil, "f", 20) // load fine, call runs
	})
}

// stridedRound is one round of an unrolled "acc += base[imm]", the
// six-instruction shape fuseIndexedRun batches, over the given
// registers: mov lm = base; const k = imm; ad = lm + k; ld = [ad];
// td = acc + ld; mov acc = td.
func stridedRound(base, acc, lm, k, ad, ld, td obj.Reg, imm int64) []obj.Instr {
	return []obj.Instr{
		{Op: obj.OpMov, Dst: lm, A: base, B: obj.NoReg},
		{Op: obj.OpConst, Dst: k, Imm: imm, A: obj.NoReg, B: obj.NoReg},
		{Op: obj.OpBin, Dst: ad, A: lm, B: k, Tok: int(cmini.PLUS)},
		{Op: obj.OpLoad, Dst: ld, A: ad, B: obj.NoReg},
		{Op: obj.OpBin, Dst: td, A: acc, B: ld, Tok: int(cmini.PLUS)},
		{Op: obj.OpMov, Dst: acc, A: td, B: obj.NoReg},
	}
}

// widestOp returns the most instructions any one compiled op of the
// named function covers.
func widestOp(m *M, name string) int64 {
	var widest int64
	for _, b := range m.compiledFor(m.lookup(name)).blocks {
		for i, u := range b.ops {
			if u.kind != uSeg {
				widest = max(widest, b.done[i-1]-b.done[i])
			}
		}
	}
	return widest
}

// stridedProgram wraps runs of strided rounds in a function f(x) over a
// global array g: r0 = x, r1 = 100 is read (acc = r2 = x + r1) before
// the rounds reuse it, r3 = &g is the base, and afterwards every
// register r0..r5 is folded into the result, so any register the fused
// run leaves different from the unfused one changes f's value.
func stridedProgram(rounds ...[]obj.Instr) *obj.File {
	code := []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 100, A: obj.NoReg, B: obj.NoReg},
		{Op: obj.OpBin, Dst: 2, A: 0, B: 1, Tok: int(cmini.PLUS)},
		{Op: obj.OpAddrGlobal, Dst: 3, Sym: "g", A: obj.NoReg, B: obj.NoReg},
	}
	for _, r := range rounds {
		code = append(code, r...)
	}
	code = append(code, obj.Instr{Op: obj.OpConst, Dst: 6, Imm: 31, A: obj.NoReg, B: obj.NoReg})
	for _, r := range []obj.Reg{1, 2, 3, 4, 5} {
		code = append(code,
			obj.Instr{Op: obj.OpBin, Dst: 0, A: 0, B: 6, Tok: int(cmini.STAR)},
			obj.Instr{Op: obj.OpBin, Dst: 0, A: 0, B: r, Tok: int(cmini.PLUS)})
	}
	code = append(code, obj.Instr{Op: obj.OpRet, A: 0, HasVal: true})
	f := fileWith(buildFunc("f", 1, 7, 0, code))
	f.Datas["g"] = &obj.Data{Name: "g", Size: 8}
	f.AddSym(&obj.Symbol{Name: "g", Kind: obj.SymData, Defined: true})
	return f
}

func fillG(m *M) {
	a := m.Img.GlobalAddr["g"]
	for i := int64(0); i < 8; i++ {
		m.Mem[a+i] = i*i + 3
	}
}

// TestBackendParityStridedRuns holds the fused strided run to the
// unfused register file for the register-reuse shapes renumbering
// produces, and checks which shapes fuse.
func TestBackendParityStridedRuns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds [][]obj.Instr
		fused  bool
	}{
		// Temporaries share registers, including the preamble's r1,
		// which the result reads after the run as well.
		{"shared-temps", [][]obj.Instr{
			stridedRound(3, 2, 1, 4, 1, 1, 1, 1),
			stridedRound(3, 2, 1, 4, 1, 1, 1, 2),
			stridedRound(3, 2, 1, 4, 1, 1, 1, 3),
		}, true},
		// Distinct temporaries in every slot of every round.
		{"distinct-temps", [][]obj.Instr{
			stridedRound(3, 2, 1, 4, 5, 1, 4, 0),
			stridedRound(3, 2, 5, 1, 4, 4, 5, 7),
		}, true},
		// The final round's const overwrites the now-dead base.
		{"final-const-overwrites-base", [][]obj.Instr{
			stridedRound(3, 2, 1, 4, 1, 1, 1, 1),
			stridedRound(3, 2, 1, 4, 1, 1, 1, 2),
			stridedRound(3, 2, 1, 3, 1, 1, 1, 5),
		}, true},
		// An earlier round's sum survives in r5: declined.
		{"early-sum-survives", [][]obj.Instr{
			stridedRound(3, 2, 1, 4, 1, 1, 5, 1),
			stridedRound(3, 2, 1, 4, 1, 1, 1, 2),
		}, false},
		// A non-final round's const overwrites base: declined.
		{"early-round-overwrites-base", [][]obj.Instr{
			stridedRound(3, 2, 1, 4, 1, 3, 1, 1),
			stridedRound(3, 2, 1, 4, 1, 1, 1, 2),
		}, false},
		// A temporary overwrites acc before the sum: declined.
		{"temp-overwrites-acc", [][]obj.Instr{
			stridedRound(3, 2, 1, 4, 2, 1, 1, 1),
			stridedRound(3, 2, 1, 4, 1, 1, 1, 2),
		}, false},
		// The const overwrites the mov's copy of base: declined.
		{"const-overwrites-copy", [][]obj.Instr{
			stridedRound(3, 2, 1, 1, 1, 1, 1, 1),
			stridedRound(3, 2, 1, 4, 1, 1, 1, 2),
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := stridedProgram(tc.rounds...)
			runBoth(t, f, fillG, "f", 9)
			_, mc := compiledPair(t, f)
			width := int64(6 * len(tc.rounds))
			if got := widestOp(mc, "f"); (got == width) != tc.fused {
				t.Errorf("widest op covers %d instructions; want fused=%v for a %d-instruction run", got, tc.fused, width)
			}
		})
	}
	t.Run("trap-in-round-k", func(t *testing.T) {
		// base = r0 = x; round 2 of 4 loads past the end of memory.
		var rounds [][]obj.Instr
		for _, imm := range []int64{0, 1, 1 << 40, 2} {
			rounds = append(rounds, stridedRound(0, 2, 1, 4, 1, 1, 1, imm))
		}
		f := stridedProgram(rounds...)
		_, mc := compiledPair(t, f)
		if got := widestOp(mc, "f"); got != 24 {
			t.Fatalf("widest op covers %d instructions, want the fused 24", got)
		}
		runBoth(t, f, fillG, "f", 20)
	})

	// A fused run with contiguous offsets checks its whole window
	// [base+min, base+max] once and falls back to per-round checks when
	// the window leaves memory or wraps; any other run always goes round
	// by round. Base r0 = x places the window; base r3 = &g keeps it
	// inside g. Trapping cases must stop at the interpreter's exact round.
	end := int64(len(loadFile(t, stridedProgram()).Mem))
	for _, tc := range []struct {
		name string
		base obj.Reg
		x    int64
		imms []int64
	}{
		{"straddles-null-guard", 0, nullGuard - 2, []int64{3, 2, 1, 0}},
		{"straddles-end-of-memory", 0, end - 2, []int64{0, 1, 2, 3}},
		{"base-plus-max-wraps", 0, math.MaxInt64 - 1, []int64{0, 1, 2, 3}},
		{"stride-2", 3, 9, []int64{0, 2, 4, 6}},
		{"stride-2-straddles-end", 0, end - 5, []int64{0, 2, 4, 6}},
		{"descending", 3, 9, []int64{7, 5, 3, 1}},
		{"repeated", 3, 9, []int64{1, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rounds [][]obj.Instr
			for _, imm := range tc.imms {
				rounds = append(rounds, stridedRound(tc.base, 2, 1, 4, 1, 1, 1, imm))
			}
			f := stridedProgram(rounds...)
			_, mc := compiledPair(t, f)
			if got, want := widestOp(mc, "f"), int64(6*len(tc.imms)); got != want {
				t.Fatalf("widest op covers %d instructions, want the fused %d", got, want)
			}
			runBoth(t, f, fillG, "f", tc.x)
		})
	}
}

// osWorkSource is the router's os_work: 320 unrolled reads of a static
// pool into one accumulator.
func osWorkSource() string {
	var b strings.Builder
	b.WriteString("static int pool[512];\nint os_work(void) {\n    int s = 0;\n")
	for i := 0; i < 320; i++ {
		fmt.Fprintf(&b, "    s += pool[%d];\n", i)
	}
	b.WriteString("    return s;\n}\n")
	return b.String()
}

// TestOSWorkRunFuses pins that os_work, compiled by the real compiler
// with registers renumbered, keeps a frame of at most 8 registers and
// runs its strided run — rounds 1..319; round 0 reuses the constant 0
// and has no const — as one fused op, with interpreter parity.
func TestOSWorkRunFuses(t *testing.T) {
	cf, err := cmini.Parse("oswork.c", osWorkSource())
	if err != nil {
		t.Fatal(err)
	}
	o, err := compile.Compile(cf, compile.Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Funcs["os_work"].NRegs; n > 8 {
		t.Errorf("os_work has %d registers, want at most 8", n)
	}
	_, mc := compiledPair(t, o)
	if got, want := widestOp(mc, "os_work"), int64(6*319); got != want {
		t.Errorf("os_work's widest compiled op covers %d instructions, want the fused run's %d", got, want)
	}
	runBoth(t, o, func(m *M) {
		a := m.Img.GlobalAddr["pool"]
		for i := int64(0); i < 512; i++ {
			m.Mem[a+i] = i*7 - 100
		}
	}, "os_work")
}

// postCallRecord is the backend-comparable slice of a CallInfo: cycles
// are excluded (the compiled backend legitimately accounts fewer).
type postCallRecord struct {
	fn    string
	depth int
	err   string
}

func recordPostCalls(m *M) *[]postCallRecord {
	var recs []postCallRecord
	m.PostCall = func(ci CallInfo) {
		e := ""
		if ci.Err != nil {
			e = ci.Err.Error()
		}
		recs = append(recs, postCallRecord{fn: ci.Fn, depth: ci.Depth, err: e})
	}
	return &recs
}

// TestBackendFuelTrapParity sweeps the fuel budget across every value
// that can expire inside the workload — including mid-callee — and
// demands the same trap at the same instruction count with the same
// PostCall sequence, i.e. the budget dies at the exact same call index
// on both backends.
func TestBackendFuelTrapParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		file  func() *obj.File
		entry string
		args  []int64
	}{
		{"sum", sumLoopProgram, "sum", []int64{6}},
		{"fib", fibProgram, "fib", []int64{6}},
		{"nested", nestedProgram, "outer", []int64{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := loadFile(t, tc.file())
			if _, err := probe.Run(tc.entry, tc.args...); err != nil {
				t.Fatal(err)
			}
			total := probe.Executed
			for fuel := int64(1); fuel <= total+1; fuel++ {
				mi, mc := compiledPair(t, tc.file())
				ri := recordPostCalls(mi)
				rc := recordPostCalls(mc)
				mi.Fuel, mc.Fuel = fuel, fuel
				vi, ei := mi.Run(tc.entry, tc.args...)
				vc, ec := mc.Run(tc.entry, tc.args...)
				assertBackendParity(t, mi, mc, vi, vc, ei, ec)
				if fuel < total && ei == nil {
					t.Fatalf("fuel=%d of %d: run unexpectedly completed", fuel, total)
				}
				if fuel < total && mi.Executed != fuel {
					t.Fatalf("fuel=%d: interp executed %d, want the trap at the budget", fuel, mi.Executed)
				}
				if len(*ri) != len(*rc) {
					t.Fatalf("fuel=%d: PostCall sequence lengths differ: %d vs %d", fuel, len(*ri), len(*rc))
				}
				for i := range *ri {
					if (*ri)[i] != (*rc)[i] {
						t.Fatalf("fuel=%d: PostCall[%d] interp=%+v compiled=%+v", fuel, i, (*ri)[i], (*rc)[i])
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		})
	}
}

// TestBackendStepLimitParity: same sweep for the per-Run step limit.
func TestBackendStepLimitParity(t *testing.T) {
	probe := loadFile(t, fibProgram())
	if _, err := probe.Run("fib", 5); err != nil {
		t.Fatal(err)
	}
	total := probe.Executed
	for lim := int64(1); lim <= total+1; lim++ {
		mi, mc := compiledPair(t, fibProgram())
		mi.StepLimit, mc.StepLimit = lim, lim
		vi, ei := mi.Run("fib", 5)
		vc, ec := mc.Run("fib", 5)
		assertBackendParity(t, mi, mc, vi, vc, ei, ec)
		if t.Failed() {
			t.Fatalf("diverged at StepLimit=%d", lim)
		}
	}
}

// swapDriverProgram builds the interposition regression workload: one
// call site runs primary, a builtin swaps the redirect, and the very
// next execution of the same (already-cached) call site must land on
// the replacement. acc accumulates base-10 digits of what ran.
func swapDriverProgram(iters int64) *obj.File {
	return fileWith(
		buildFunc("primary", 0, 1, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 0, Imm: 1},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}),
		buildFunc("backup", 0, 1, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 0, Imm: 2},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}),
		buildFunc("driver", 0, 6, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 1, Imm: 0}, // i
			{Op: obj.OpConst, Dst: 2, Imm: 0}, // acc
			{Op: obj.OpConst, Dst: 3, Imm: iters},
			{Op: obj.OpBin, Dst: 4, A: 1, B: 3, Tok: int(cmini.GE)},
			{Op: obj.OpBranch, A: 4, Targets: [2]int{14, 5}},
			{Op: obj.OpCall, Dst: 5, Sym: "primary"}, // the one cached site
			{Op: obj.OpConst, Dst: 4, Imm: 10},
			{Op: obj.OpBin, Dst: 2, A: 2, B: 4, Tok: int(cmini.STAR)},
			{Op: obj.OpBin, Dst: 2, A: 2, B: 5, Tok: int(cmini.PLUS)},
			{Op: obj.OpCall, Dst: 5, Sym: "__swap"}, // host swaps the redirect
			{Op: obj.OpConst, Dst: 4, Imm: 1},
			{Op: obj.OpBin, Dst: 1, A: 1, B: 4, Tok: int(cmini.PLUS)},
			{Op: obj.OpJump, Targets: [2]int{3}},
			{Op: obj.OpConst, Dst: 0, Imm: 0}, // unreachable padding
			{Op: obj.OpRet, A: 2, HasVal: true},
		}),
	)
}

// TestBackendInterposeMidRunInvalidation is the regression test for the
// compiled backend's cached call targets: a redirect installed while
// the caller's frame is live (from a builtin) must take effect at the
// very next call through the same site, and an Unpose must restore the
// original just as promptly.
func TestBackendInterposeMidRunInvalidation(t *testing.T) {
	for _, backend := range []Backend{BackendInterp, BackendCompiled} {
		t.Run(backend.String(), func(t *testing.T) {
			m := loadFile(t, swapDriverProgram(3))
			m.SetBackend(backend)
			toggled := false
			m.RegisterBuiltin("__swap", func(m *M, _ []int64) (int64, error) {
				if !toggled {
					toggled = true
					if err := m.Interpose("primary", "backup"); err != nil {
						return 0, err
					}
				} else {
					toggled = false
					m.Unpose("primary")
				}
				return 0, nil
			})
			v, err := m.Run("driver")
			if err != nil {
				t.Fatal(err)
			}
			// iter 1: primary (1); swap → iter 2: backup (2); unpose →
			// iter 3: primary (1).
			if v != 121 {
				t.Fatalf("driver() = %d, want 121 (stale cached call target?)", v)
			}
		})
	}
}

// TestCompiledCallPathZeroAllocs extends the interpreter's zero-alloc
// guarantee to the compiled backend: bare, interposed, and hooked call
// paths stay off the heap once the arenas and dispatch caches are warm.
func TestCompiledCallPathZeroAllocs(t *testing.T) {
	m := loadFile(t, nestedProgram())
	m.SetBackend(BackendCompiled)
	run := func() {
		if _, err := m.Run("outer", 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm arenas, compile the image, fill the dispatch cache
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("bare compiled call path: %.1f allocs/op, want 0", n)
	}

	if err := m.Interpose("middle", "inner"); err != nil {
		t.Fatal(err)
	}
	run() // re-resolve the invalidated dispatch cache once
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("interposed compiled call path: %.1f allocs/op, want 0", n)
	}
	m.Unpose("middle")

	var calls int64
	m.PostCall = func(ci CallInfo) {
		if ci.Depth == 0 {
			calls++
		}
	}
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("hooked compiled call path: %.1f allocs/op, want 0", n)
	}
	if calls == 0 {
		t.Error("hook never saw a top-level call")
	}
}

// TestBackendDynamicParity runs a directed dynamic-module lifecycle on
// both backends in lockstep: load, call across modules, interpose onto
// a dynamic function, snapshot, unload, restore.
func TestBackendDynamicParity(t *testing.T) {
	base := fileWith(buildFunc("base_id", 1, 2, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	mi, mc := compiledPair(t, base)

	step := func(name string, op func(m *M) (int64, error)) {
		t.Helper()
		vi, ei := op(mi)
		vc, ec := op(mc)
		if vi != vc {
			t.Fatalf("%s: value interp=%d compiled=%d", name, vi, vc)
		}
		assertSameError(t, ei, ec)
		if mi.Executed != mc.Executed {
			t.Fatalf("%s: Executed interp=%d compiled=%d", name, mi.Executed, mc.Executed)
		}
		if err := mi.CheckDynInvariants(); err != nil {
			t.Fatalf("%s: interp invariants: %v", name, err)
		}
		if err := mc.CheckDynInvariants(); err != nil {
			t.Fatalf("%s: compiled invariants: %v", name, err)
		}
	}
	load := func(tpl int) func(m *M) (int64, error) {
		return func(m *M) (int64, error) {
			return 0, m.LoadDynamicAs(fuzzModName(tpl), "", fuzzTemplate(tpl))
		}
	}
	run := func(fn string, args ...int64) func(m *M) (int64, error) {
		return func(m *M) (int64, error) { return m.Run(fn, args...) }
	}

	step("load t0", load(0))
	step("load t1", load(1))
	step("load t2", load(2))
	step("load t3", load(3))
	step("run fn_2", run("fn_2"))
	step("run fn_3", run("fn_3"))
	step("interpose base_id->fn_X fails (arity)", func(m *M) (int64, error) {
		err := m.Interpose("fn_0", "base_id")
		return 0, err
	})
	var snaps [2]*Snapshot
	step("snapshot", func(m *M) (int64, error) {
		if m.backend == BackendCompiled {
			snaps[1] = m.Snapshot()
		} else {
			snaps[0] = m.Snapshot()
		}
		return 0, nil
	})
	step("unload t3", func(m *M) (int64, error) { return 0, m.UnloadDynamic(fuzzModName(3)) })
	step("run fn_3 dead", run("fn_3"))
	step("restore", func(m *M) (int64, error) {
		if m.backend == BackendCompiled {
			m.Restore(snaps[1])
		} else {
			m.Restore(snaps[0])
		}
		return 0, nil
	})
	step("run fn_3 back", run("fn_3"))
	step("run fn_2 again", run("fn_2"))
}

// TestBackendSwitchMidMachine: a machine may switch engines between
// runs; counters keep accumulating and programs keep working.
func TestBackendSwitchMidMachine(t *testing.T) {
	m := loadFile(t, sumLoopProgram())
	v1, err := m.Run("sum", 10)
	if err != nil || v1 != 55 {
		t.Fatalf("interp: %d, %v", v1, err)
	}
	exec1 := m.Executed
	m.SetBackend(BackendCompiled)
	v2, err := m.Run("sum", 10)
	if err != nil || v2 != 55 {
		t.Fatalf("compiled: %d, %v", v2, err)
	}
	if m.Executed != 2*exec1 {
		t.Errorf("Executed after both runs = %d, want %d", m.Executed, 2*exec1)
	}
}

// TestParseBackend pins the flag grammar.
func TestParseBackend(t *testing.T) {
	for s, want := range map[string]Backend{
		"": BackendInterp, "interp": BackendInterp, "interpreter": BackendInterp,
		"compiled": BackendCompiled,
	} {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"jit", "closure"} {
		if _, err := ParseBackend(s); err == nil {
			t.Errorf("ParseBackend(%s) succeeded, want error", s)
		}
	}
	if BackendInterp.String() != "interp" || BackendCompiled.String() != "compiled" {
		t.Error("Backend.String round-trip broken")
	}
}

// BenchmarkBackends compares the two engines on the recursive workload
// (calls dominate) and the loop workload (straight-line dominates).
func BenchmarkBackends(b *testing.B) {
	for _, tc := range []struct {
		name  string
		file  *obj.File
		entry string
		args  []int64
	}{
		{"fib15", fibProgram(), "fib", []int64{15}},
		{"sum1k", sumLoopProgram(), "sum", []int64{1000}},
	} {
		for _, backend := range []Backend{BackendInterp, BackendCompiled} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, backend), func(b *testing.B) {
				img, err := Load(tc.file, DefaultCosts())
				if err != nil {
					b.Fatal(err)
				}
				m := New(img)
				m.SetBackend(backend)
				m.StepLimit = 1 << 40
				if _, err := m.Run(tc.entry, tc.args...); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.Run(tc.entry, tc.args...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
