package machine

import (
	"fmt"
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// TestCompiledKinds pins every micro-op and terminator kind of the
// compiled engine. Each row is one small function f(x, y) that compiles
// to the kinds it names; it runs on both engines in lockstep (return
// value, memory, Executed, Cycles, Calls and the trap), once per
// argument set, and then again under every StepLimit and every Fuel
// bound up to its length, so each instruction of each fused group is
// where the execLoop fallback must stop once. A trapping argument set
// names the trap kind both engines must report. A kind no row compiles
// to fails the test, as TestTrapKindStringExhaustive does for traps.
func TestCompiledKinds(t *testing.T) {
	covered := map[string]bool{}
	for _, r := range kindRows() {
		t.Run(r.name, func(t *testing.T) {
			img, err := Load(kindProgram(r), DefaultCosts())
			if err != nil {
				t.Fatal(err)
			}
			has := compiledKinds(kindMachine(img, BackendCompiled))
			for k := range has {
				covered[k] = true
			}
			for _, k := range r.kinds {
				if !has[k.String()] {
					t.Errorf("f compiles to %v, not to the row's %s", has, k)
				}
			}
			for _, c := range r.runs {
				mi, mc := kindMachine(img, BackendInterp), kindMachine(img, BackendCompiled)
				vi, ei := mi.Run("f", c.args...)
				vc, ec := mc.Run("f", c.args...)
				assertBackendParity(t, mi, mc, vi, vc, ei, ec)
				if t.Failed() {
					t.FailNow()
				}
				if c.trap >= 0 {
					tr, ok := ei.(*Trap)
					if !ok || tr.Kind != TrapKind(c.trap) {
						t.Fatalf("f%v: interp error %v, want a %s trap", c.args, ei, TrapKind(c.trap))
					}
				} else if ei != nil {
					t.Fatalf("f%v: %v", c.args, ei)
				}
				for limit := int64(1); limit <= mi.Executed+1; limit++ {
					for _, fuel := range []bool{false, true} {
						mi, mc := kindMachine(img, BackendInterp), kindMachine(img, BackendCompiled)
						if fuel {
							mi.Fuel, mc.Fuel = limit, limit
						} else {
							mi.StepLimit, mc.StepLimit = limit, limit
						}
						vi, ei := mi.Run("f", c.args...)
						vc, ec := mc.Run("f", c.args...)
						assertBackendParity(t, mi, mc, vi, vc, ei, ec)
						if t.Failed() {
							t.Fatalf("f%v diverged with limit %d (fuel %v)", c.args, limit, fuel)
						}
					}
				}
			}
		})
	}
	for k := uopKind(0); k < numUopKinds; k++ {
		if !covered[k.String()] {
			t.Errorf("%s has no row", k)
		}
	}
	for k := termKind(0); k < numTermKinds; k++ {
		if !covered[k.String()] {
			t.Errorf("%s has no row", k)
		}
	}
}

func (k uopKind) String() string  { return fmt.Sprintf("uopKind(%d)", int(k)) }
func (k termKind) String() string { return fmt.Sprintf("termKind(%d)", int(k)) }

// kindRun is one argument set of a row and the trap it must raise
// (-1: none).
type kindRun struct {
	args []int64
	trap int
}

type kindRow struct {
	name  string
	kinds []fmt.Stringer // the uopKinds and termKinds f must compile to
	body  []obj.Instr    // jump and branch targets of fold go to the fold block
	// noFold leaves the fold block out, so the body is all of f.
	noFold bool
	runs   []kindRun
}

// fold marks a jump or branch target as the fold block: f's epilogue,
// which folds every register into r0 and returns it, so a register a
// fused op leaves wrong changes f's value.
const fold = -100

// kindRegs is f's register count; r0 and r1 are its arguments.
const kindRegs = 8

func cnst(d obj.Reg, imm int64) obj.Instr {
	return obj.Instr{Op: obj.OpConst, Dst: d, Imm: imm, A: obj.NoReg, B: obj.NoReg}
}
func mov(d, a obj.Reg) obj.Instr { return obj.Instr{Op: obj.OpMov, Dst: d, A: a, B: obj.NoReg} }
func bin(tok cmini.Tok, d, a, b obj.Reg) obj.Instr {
	return obj.Instr{Op: obj.OpBin, Dst: d, A: a, B: b, Tok: int(tok)}
}
func load(d, a obj.Reg) obj.Instr  { return obj.Instr{Op: obj.OpLoad, Dst: d, A: a, B: obj.NoReg} }
func store(a, b obj.Reg) obj.Instr { return obj.Instr{Op: obj.OpStore, A: a, B: b} }
func jump(t int) obj.Instr         { return obj.Instr{Op: obj.OpJump, Targets: [2]int{t}} }
func branch(a obj.Reg, t0, t1 int) obj.Instr {
	return obj.Instr{Op: obj.OpBranch, A: a, Targets: [2]int{t0, t1}}
}

// kindProgram is f — the row's body, then the fold block — beside a
// callee(x) = x + 1, a global g = {5, 6, 7, 8} and the string "Knit".
func kindProgram(r kindRow) *obj.File {
	code := append([]obj.Instr(nil), r.body...)
	at := len(code)
	for i := range code {
		for j, t := range code[i].Targets {
			if t == fold {
				code[i].Targets[j] = at
			}
		}
	}
	if !r.noFold {
		for k := obj.Reg(1); k < kindRegs; k++ {
			code = append(code, bin(cmini.PLUS, 0, 0, 0), bin(cmini.CARET, 0, 0, k))
		}
		code = append(code, obj.Instr{Op: obj.OpRet, A: 0, HasVal: true})
	}
	f := fileWith(
		buildFunc("f", 2, kindRegs, 2, code),
		buildFunc("callee", 1, 2, 0, []obj.Instr{
			cnst(1, 1), bin(cmini.PLUS, 1, 0, 1), {Op: obj.OpRet, A: 1, HasVal: true},
		}),
	)
	f.Strings = []string{"Knit"}
	f.Datas["g"] = &obj.Data{Name: "g", Size: 4, Init: []obj.DataInit{
		{Kind: obj.InitConst, Val: 5}, {Kind: obj.InitConst, Val: 6},
		{Kind: obj.InitConst, Val: 7}, {Kind: obj.InitConst, Val: 8},
	}}
	f.AddSym(&obj.Symbol{Name: "g", Kind: obj.SymData, Defined: true})
	return f
}

// kindMachine is a machine on img with the builtin __dev(a, b) = 3a + b.
func kindMachine(img *Image, b Backend) *M {
	m := New(img)
	m.SetBackend(b)
	m.RegisterBuiltin("__dev", func(_ *M, args []int64) (int64, error) { return 3*args[0] + args[1], nil })
	return m
}

// compiledKinds names every micro-op and terminator kind f compiled to.
func compiledKinds(m *M) map[string]bool {
	has := map[string]bool{}
	for _, b := range m.compiledFor(m.lookup("f")).blocks {
		for _, u := range b.ops {
			has[u.kind.String()] = true
		}
		has[b.term.String()] = true
	}
	return has
}

func kindRows() []kindRow {
	ok := func(args ...int64) kindRun { return kindRun{args: args, trap: -1} }
	traps := func(k TrapKind, args ...int64) kindRun { return kindRun{args: args, trap: int(k)} }
	plain := []kindRun{ok(-7, 3), ok(5, 70)}
	rows := []kindRow{
		{"seg", ks(uSeg, termJump), []obj.Instr{cnst(2, 7), jump(fold)}, false, plain},
		{"const", ks(uConst), []obj.Instr{cnst(2, -9), jump(fold)}, false, plain},
		{"addr-global", ks(uConst), []obj.Instr{{Op: obj.OpAddrGlobal, Dst: 2, Sym: "g", A: obj.NoReg}, jump(fold)}, false, plain},
		{"addr-string", ks(uConst), []obj.Instr{{Op: obj.OpAddrString, Dst: 2, Imm: 0, A: obj.NoReg}, jump(fold)}, false, plain},
		{"mov", ks(uMov), []obj.Instr{mov(2, 0), jump(fold)}, false, plain},
		// The second mov reads the first one's result.
		{"mov-mov", ks(uMovMov), []obj.Instr{mov(2, 0), mov(3, 2), jump(fold)}, false, plain},
		// The const overwrites the mov's source.
		{"mov-const", ks(uMovConst), []obj.Instr{mov(2, 0), cnst(0, 4), jump(fold)}, false, plain},
		{"addr-local", ks(uAddrLocal, uStore, uLoad), []obj.Instr{
			{Op: obj.OpAddrLocal, Dst: 2, Imm: 1, A: obj.NoReg}, store(2, 0), load(3, 2), jump(fold),
		}, false, plain},
		{"load", ks(uLoad), []obj.Instr{load(2, 0), jump(fold)}, false, []kindRun{
			ok(100, 0), traps(TrapBadAddress, nullGuard-1, 0), traps(TrapBadAddress, 1<<40, 0),
		}},
		{"store", ks(uStore), []obj.Instr{store(0, 1), load(2, 0), jump(fold)}, false, []kindRun{
			ok(100, 7), traps(TrapBadAddress, 2, 7), traps(TrapBadAddress, -5, 7),
		}},
		{"global-load", ks(uGlobalLoad), []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 2, Sym: "g", A: obj.NoReg}, load(3, 2), jump(fold),
		}, false, plain},
		// A function's address is not data: the load half traps.
		{"global-load-trap", ks(uGlobalLoad), []obj.Instr{
			cnst(4, 1), {Op: obj.OpAddrGlobal, Dst: 2, Sym: "callee", A: obj.NoReg}, load(3, 2), jump(fold),
		}, false, []kindRun{traps(TrapBadAddress, 1, 2)}},
		{"add-load", ks(uAddLoad), []obj.Instr{bin(cmini.PLUS, 2, 0, 1), load(3, 2), jump(fold)}, false, []kindRun{
			ok(90, 10), traps(TrapBadAddress, 1, 1), traps(TrapBadAddress, 1<<40, 5),
		}},
		{"add-mov", ks(uAddMov), []obj.Instr{bin(cmini.PLUS, 2, 0, 1), mov(3, 2), jump(fold)}, false, plain},
		{"call", ks(uCall), []obj.Instr{
			cnst(3, 2), {Op: obj.OpCall, Dst: 2, Sym: "callee", Args: []obj.Reg{0}}, jump(fold),
		}, false, plain},
		{"call-builtin", ks(uCall), []obj.Instr{
			{Op: obj.OpCall, Dst: 2, Sym: "__dev", Args: []obj.Reg{0, 1}}, jump(fold),
		}, false, plain},
		{"call-undefined", ks(uCall), []obj.Instr{
			cnst(3, 2), {Op: obj.OpCall, Dst: 2, Sym: "nowhere"}, jump(fold),
		}, false, []kindRun{traps(TrapUndefinedCall, 1, 2)}},
		{"div", ks(uBin), []obj.Instr{cnst(3, 2), bin(cmini.SLASH, 2, 0, 1), jump(fold)}, false, []kindRun{
			ok(17, 5), traps(TrapGeneric, 17, 0),
		}},
		{"mod", ks(uBin), []obj.Instr{bin(cmini.PERCENT, 2, 0, 1), cnst(3, 2), jump(fold)}, false, []kindRun{
			ok(17, 5), traps(TrapGeneric, 17, 0),
		}},
		// A token no ALU op has traps as the interpreter's EvalBin does.
		{"bad-bin-token", ks(uBin), []obj.Instr{cnst(3, 2), bin(cmini.ASSIGN, 2, 0, 1), jump(fold)}, false, []kindRun{
			traps(TrapGeneric, 1, 2),
		}},
		{"neg", ks(uUn), []obj.Instr{{Op: obj.OpUn, Dst: 2, A: 0, Tok: int(cmini.MINUS)}, jump(fold)}, false, plain},
		{"not", ks(uUn), []obj.Instr{{Op: obj.OpUn, Dst: 0, A: 0, Tok: int(cmini.NOT)}, jump(fold)}, false, []kindRun{
			ok(0, 1), ok(5, 1),
		}},
		{"bad-un-token", ks(uUn), []obj.Instr{cnst(3, 2), {Op: obj.OpUn, Dst: 2, A: 0, Tok: int(cmini.PLUS)}, jump(fold)}, false, []kindRun{
			traps(TrapGeneric, 1, 2),
		}},
		{"bad-opcode", ks(uTrap), []obj.Instr{cnst(3, 2), {Op: badOpcode}, cnst(4, 1), jump(fold)}, false, []kindRun{
			traps(TrapGeneric, 1, 2),
		}},
		{"bad-string-index", ks(uTrap), []obj.Instr{
			cnst(3, 2), {Op: obj.OpAddrString, Dst: 2, Imm: 7, A: obj.NoReg}, cnst(4, 1), jump(fold),
		}, false, []kindRun{traps(TrapBadStringIndex, 1, 2)}},
		{"call-ind", ks(uCallInd), []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 3, Sym: "callee", A: obj.NoReg}, {Op: obj.OpCallInd, Dst: 2, A: 3, Args: []obj.Reg{0}}, jump(fold),
		}, false, plain},
		// A data address is no function.
		{"call-ind-data", ks(uCallInd), []obj.Instr{
			cnst(4, 1), {Op: obj.OpAddrGlobal, Dst: 3, Sym: "g", A: obj.NoReg}, {Op: obj.OpCallInd, Dst: 2, A: 3, Args: []obj.Reg{0}}, jump(fold),
		}, false, []kindRun{traps(TrapUnresolvedSymbol, 1, 2)}},
		// Two rounds of "acc += base[imm]", base = x and acc = y. The
		// offsets are contiguous, so the window check decides: at the
		// null guard's edge the second round traps, far out the first.
		{"strided-run", ks(uRun), append(append(
			stridedRound(0, 1, 2, 3, 4, 5, 2, 1), stridedRound(0, 1, 2, 3, 4, 5, 2, 0)...), jump(fold)), false, []kindRun{
			ok(100, 3), traps(TrapBadAddress, nullGuard-1, 3), traps(TrapBadAddress, 1<<40, 3),
		}},
		// The A operand is the const's own register.
		{"imm-alias", ks(uAddI), []obj.Instr{cnst(0, 6), bin(cmini.PLUS, 2, 0, 0), jump(fold)}, false, plain},

		{"fall-through", ks(termBranch, termJump), []obj.Instr{
			branch(0, 2, 1), cnst(2, 5), cnst(3, 6), jump(fold),
		}, false, []kindRun{ok(0, 0), ok(1, 0)}},
		{"branch", ks(termBranch), []obj.Instr{
			branch(0, 1, 3), cnst(2, 5), jump(fold), cnst(2, 6), jump(fold),
		}, false, []kindRun{ok(0, 0), ok(1, 0)}},
		// The comparison's result overwrites its own A operand.
		{"cmp-alias", ks(termLt), []obj.Instr{
			bin(cmini.LT, 0, 0, 1), branch(0, 2, 4), cnst(3, 1), jump(fold), cnst(3, 2), jump(fold),
		}, false, []kindRun{ok(1, 2), ok(2, 1)}},
		// The const is both operands.
		{"cmp-imm-alias", ks(termEqI), []obj.Instr{
			cnst(4, 2), bin(cmini.EQ, 2, 4, 4), branch(2, 3, 5), cnst(3, 1), jump(fold), cnst(3, 2), jump(fold),
		}, false, []kindRun{ok(1, 2)}},
		{"ret", ks(termRet), []obj.Instr{cnst(2, 1), {Op: obj.OpRet}}, true, plain},
		{"ret-val", ks(termRetVal), []obj.Instr{{Op: obj.OpRet, A: 1, HasVal: true}}, true, plain},
		{"fall-off-end", ks(termJump, termTrap), []obj.Instr{cnst(2, 1)}, true, []kindRun{traps(TrapGeneric, 1, 2)}},
		{"empty", ks(termTrap), nil, true, []kindRun{traps(TrapGeneric, 1, 2)}},
		{"jump-out-of-range", ks(termJump, termTrap), []obj.Instr{cnst(2, 1), jump(99)}, true, []kindRun{traps(TrapGeneric, 1, 2)}},
		{"branch-out-of-range", ks(termBranch, termTrap), []obj.Instr{cnst(2, 1), branch(0, 99, fold)}, false, []kindRun{
			ok(0, 0), traps(TrapGeneric, 1, 0),
		}},
		// Compare-and-branch fuses whatever its targets are.
		{"cmp-out-of-range", ks(termLt, termTrap), []obj.Instr{bin(cmini.LT, 2, 0, 1), branch(2, fold, -1)}, false, []kindRun{
			ok(1, 2), traps(TrapGeneric, 2, 1),
		}},
	}
	for i, tok := range pureBinToks {
		rows = append(rows,
			kindRow{"bin-" + tok.String(), ks(uAdd + uopKind(i)), []obj.Instr{bin(tok, 2, 0, 1), jump(fold)}, false, plain},
			kindRow{"imm-" + tok.String(), ks(uAddI + uopKind(i)), []obj.Instr{cnst(3, 66), bin(tok, 2, 0, 3), jump(fold)}, false, plain})
	}
	for i, tok := range cmpToks {
		rows = append(rows,
			kindRow{"cmp-" + tok.String(), ks(termLt + termKind(i)), []obj.Instr{
				bin(tok, 2, 0, 1), branch(2, 2, 4), cnst(3, 1), jump(fold), cnst(3, 2), jump(fold),
			}, false, []kindRun{ok(1, 2), ok(2, 1), ok(2, 2)}},
			kindRow{"cmp-imm-" + tok.String(), ks(termLtI + termKind(i)), []obj.Instr{
				cnst(4, 2), bin(tok, 2, 0, 4), branch(2, 3, 5), cnst(3, 1), jump(fold), cnst(3, 2), jump(fold),
			}, false, []kindRun{ok(1, 0), ok(2, 0), ok(3, 0)}})
	}
	return rows
}

func ks(kinds ...fmt.Stringer) []fmt.Stringer { return kinds }
