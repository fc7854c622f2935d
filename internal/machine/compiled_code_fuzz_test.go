package machine

import (
	"math"
	"slices"
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// FuzzCompiledCode runs random instruction mixes on both engines in
// lockstep: one function f(x, y) of up to about 32 instructions over six
// registers, so that operands alias, with kindProgram's callee, global,
// string, builtin and fold block around it. The input draws from every
// opcode and, more often than chance would, from the shapes the compiled
// engine fuses ("mov; const", "add; load", "add; mov", "const; op",
// compare-and-branch with a register or a const operand, and repeated
// accumulate rounds), with jump and branch targets in and out of range,
// divides by zero, loads and stores at and past the edges of memory,
// direct calls to the callee, a builtin, f itself and an undefined
// symbol, indirect calls to any register, and an unknown opcode. f runs
// twice, under a step limit or a fuel bound taken from the input, since
// back edges loop, and assertBackendParity holds the two engines to the
// same value, error, Executed, Cycles less Stalls, calls and memory.
//
// The seeds are the bodies and argument sets of kindRows, so the corpus
// starts from every micro-op and terminator kind.
func FuzzCompiledCode(f *testing.F) {
	for _, r := range kindRows() {
		for _, c := range r.runs {
			seed, ok := encodeCode(r.body, r.noFold, c.args)
			if !ok {
				f.Fatalf("row %s does not encode", r.name)
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCode(data)
		img, err := Load(kindProgram(kindRow{body: c.body, noFold: c.noFold}), DefaultCosts())
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		mi, mc := kindMachine(img, BackendInterp), kindMachine(img, BackendCompiled)
		defer mi.Release()
		defer mc.Release()
		for _, m := range []*M{mi, mc} {
			if c.fuel {
				m.Fuel = c.limit
			} else {
				m.StepLimit = c.limit
			}
		}
		x, y := fuzzArg(c.args[0], mi), fuzzArg(c.args[1], mi)
		for run := 0; run < 2; run++ {
			vi, ei := mi.Run("f", x, y)
			vc, ec := mc.Run("f", x, y)
			assertBackendParity(t, mi, mc, vi, vc, ei, ec)
			if t.Failed() {
				t.Fatalf("run %d of f(%d, %d) diverged, body %v", run, x, y, c.body)
			}
		}
	})
}

// The shapes a FuzzCompiledCode input is made of, each one shape byte
// and then the operand bytes listed.
const (
	fzConst      = iota // d, imm as int8
	fzConstBig          // d, fuzzImms index
	fzMov               // d, a
	fzBin               // fuzzBinToks index, d, a, b
	fzUn                // fuzzUnToks index, d, a
	fzLoad              // d, a
	fzStore             // a, b
	fzAddrGlobal        // d, fuzzGlobals index
	fzAddrLocal         // d, imm as int8
	fzAddrString        // d, index as int8
	fzCall              // d, fuzzCallees index, argument count, two argument registers
	fzCallInd           // d, target register, argument count, two argument registers
	fzJump              // target
	fzBranch            // a, target, target
	fzRet               // with a value when odd, a
	fzBadOp             // nothing

	// Fusable shapes, each several instructions.
	fzMovConst       // d, a, d2, imm: "mov; const"
	fzAddLoad        // d, a, b, d2, a2: "add; load"
	fzAddMov         // d, a, b, d2, a2: "add; mov"
	fzConstOp        // k, imm, fuzzBinToks index, d, a: "const; op"
	fzCmpBranch      // cmpToks index, d, a, b, target, target
	fzConstCmpBranch // k, imm, cmpToks index, d, a, target, target
	fzRounds         // base, acc, t1, t2, layout, rounds, first imm, stride
	numShapes
)

// fuzzRegs is the number of registers a FuzzCompiledCode body uses.
const fuzzRegs = 6

// foldLen is the length of kindProgram's fold block.
const foldLen = 2*(kindRegs-1) + 1

// badOpcode is an opcode no engine knows.
const badOpcode = obj.Op(250)

var (
	// fuzzBinToks are every ALU token and ASSIGN, which no ALU op has.
	fuzzBinToks = append(pureBinToks[:len(pureBinToks):len(pureBinToks)], cmini.SLASH, cmini.PERCENT, cmini.ASSIGN)
	// fuzzUnToks are the unary tokens and PLUS, which no unary op has.
	fuzzUnToks  = []cmini.Tok{cmini.MINUS, cmini.NOT, cmini.TILDE, cmini.PLUS}
	fuzzImms    = []int64{1 << 40, -1 << 40, math.MinInt64, math.MaxInt64, nullGuard - 1, nullGuard, 1000, -1000}
	fuzzGlobals = []string{"g", "callee", "f"}
	fuzzCallees = []string{"callee", "__dev", "nowhere", "f"}
)

// fuzzCode is a decoded FuzzCompiledCode input: f's body, whether it
// goes without the fold block, the budget, and the argument bytes.
type fuzzCode struct {
	body   []obj.Instr
	noFold bool
	fuel   bool
	limit  int64
	args   [2]byte
}

// decodeCode decodes an input: a mode byte (bit 0 a fuel bound rather
// than a step limit, bit 1 no fold block), a budget byte b for a budget
// of 2b+1 instructions, two argument bytes (see fuzzArg), then shapes
// until the input or about 32 instructions run out. A target byte is
// f's fold block at 0xFF, -1 at 0xFE, 1<<20 at 0xFD, and otherwise
// itself modulo one past f's length, so that one value in range of it
// lands just past f's end.
func decodeCode(data []byte) fuzzCode {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	mode, budget := next(), next()
	c := fuzzCode{noFold: mode&2 != 0, fuel: mode&1 != 0, limit: 2*int64(budget) + 1, args: [2]byte{next(), next()}}
	reg := func() obj.Reg { return obj.Reg(next() % fuzzRegs) }
	imm8 := func() int64 { return int64(int8(next())) }
	type pending struct {
		pc, slot int
		b        byte
	}
	var targets []pending
	var code []obj.Instr
	emit := func(in obj.Instr) { code = append(code, in) }
	target := func(slot int) { targets = append(targets, pending{len(code), slot, next()}) }
	call := func(op obj.Op, d, a obj.Reg, sym string) {
		n := int(next() % 3)
		if sym == "__dev" {
			n = 2 // the builtin reads two arguments
		}
		args := []obj.Reg{reg(), reg()}
		emit(obj.Instr{Op: op, Dst: d, A: a, Sym: sym, Args: args[:n]})
	}
	for len(data) > 0 && len(code) < 32 {
		switch next() % numShapes {
		case fzConst:
			emit(cnst(reg(), imm8()))
		case fzConstBig:
			emit(cnst(reg(), fuzzImms[int(next())%len(fuzzImms)]))
		case fzMov:
			emit(mov(reg(), reg()))
		case fzBin:
			tok := fuzzBinToks[int(next())%len(fuzzBinToks)]
			emit(bin(tok, reg(), reg(), reg()))
		case fzUn:
			tok := fuzzUnToks[int(next())%len(fuzzUnToks)]
			emit(obj.Instr{Op: obj.OpUn, Dst: reg(), A: reg(), Tok: int(tok)})
		case fzLoad:
			emit(load(reg(), reg()))
		case fzStore:
			emit(store(reg(), reg()))
		case fzAddrGlobal:
			emit(obj.Instr{Op: obj.OpAddrGlobal, Dst: reg(), Sym: fuzzGlobals[int(next())%len(fuzzGlobals)], A: obj.NoReg})
		case fzAddrLocal:
			emit(obj.Instr{Op: obj.OpAddrLocal, Dst: reg(), Imm: imm8(), A: obj.NoReg})
		case fzAddrString:
			emit(obj.Instr{Op: obj.OpAddrString, Dst: reg(), Imm: imm8(), A: obj.NoReg})
		case fzCall:
			call(obj.OpCall, reg(), obj.NoReg, fuzzCallees[int(next())%len(fuzzCallees)])
		case fzCallInd:
			call(obj.OpCallInd, reg(), reg(), "")
		case fzJump:
			target(0)
			emit(obj.Instr{Op: obj.OpJump})
		case fzBranch:
			a := reg()
			target(0)
			target(1)
			emit(obj.Instr{Op: obj.OpBranch, A: a})
		case fzRet:
			val := next()%2 == 1
			emit(obj.Instr{Op: obj.OpRet, A: reg(), HasVal: val})
		case fzBadOp:
			emit(obj.Instr{Op: badOpcode})
		case fzMovConst:
			emit(mov(reg(), reg()))
			emit(cnst(reg(), imm8()))
		case fzAddLoad:
			emit(bin(cmini.PLUS, reg(), reg(), reg()))
			emit(load(reg(), reg()))
		case fzAddMov:
			emit(bin(cmini.PLUS, reg(), reg(), reg()))
			emit(mov(reg(), reg()))
		case fzConstOp:
			k := reg()
			emit(cnst(k, imm8()))
			emit(bin(fuzzBinToks[int(next())%len(fuzzBinToks)], reg(), reg(), k))
		case fzCmpBranch:
			tok, d := cmpToks[int(next())%len(cmpToks)], reg()
			emit(bin(tok, d, reg(), reg()))
			target(0)
			target(1)
			emit(obj.Instr{Op: obj.OpBranch, A: d})
		case fzConstCmpBranch:
			k := reg()
			emit(cnst(k, imm8()))
			tok, d := cmpToks[int(next())%len(cmpToks)], reg()
			emit(bin(tok, d, reg(), k))
			target(0)
			target(1)
			emit(obj.Instr{Op: obj.OpBranch, A: d})
		case fzRounds:
			// Rounds of "acc += base[imm]"; a layout byte picks the
			// temporaries renumbering shares (lm, ad, ld and td in one
			// register) or five registers of their own.
			base, acc, t1, t2 := reg(), reg(), reg(), reg()
			lm, k, ad, ld, td := t1, t2, t1, t1, t1
			if next()%2 == 1 {
				lm, k, ad, ld, td = reg(), reg(), reg(), reg(), reg()
			}
			n := 2 + int(next()%3)
			imm, stride := imm8(), [...]int64{1, -1, 2, 0}[next()%4]
			for i := 0; i < n; i++ {
				code = append(code, stridedRound(base, acc, lm, k, ad, ld, td, imm+int64(i)*stride)...)
			}
		}
	}
	end := len(code)
	if !c.noFold {
		end += foldLen
	}
	for _, p := range targets {
		t := int(p.b) % (end + 1)
		switch p.b {
		case 0xFF:
			t = fold
		case 0xFE:
			t = -1
		case 0xFD:
			t = 1 << 20
		}
		code[p.pc].Targets[p.slot] = t
	}
	c.body = code
	return c
}

// fuzzArg decodes an argument byte: 0x00–0x7F as itself, 0x80–0xBF as
// -1 down to -64, and the rest as a value at an edge of m's memory or
// its symbols, or of int64.
func fuzzArg(b byte, m *M) int64 {
	switch {
	case b < 0x80:
		return int64(b)
	case b < 0xC0:
		return 0x7F - int64(b)
	}
	memLen := int64(len(m.Mem))
	edges := [...]int64{1 << 40, math.MinInt64, math.MaxInt64, memLen - 1, memLen, nullGuard - 1,
		m.Img.GlobalAddr["g"], m.Img.FuncAddr["callee"]}
	return edges[int(b-0xC0)%len(edges)]
}

// encodeCode is decodeCode's inverse for a body of single-instruction
// shapes run on two arguments under the largest step limit; ok is false
// when the body or the arguments have no encoding.
func encodeCode(body []obj.Instr, noFold bool, args []int64) (data []byte, ok bool) {
	if len(args) != 2 {
		return nil, false
	}
	ok = true
	idx := func(i int) byte {
		ok = ok && i >= 0
		return byte(i)
	}
	r := func(reg obj.Reg) byte {
		ok = ok && reg >= 0 && reg < fuzzRegs
		return byte(reg)
	}
	small := func(v int64) byte {
		ok = ok && v == int64(int8(v))
		return byte(int8(v))
	}
	end := len(body)
	if !noFold {
		end += foldLen
	}
	tgt := func(t int) byte {
		switch {
		case t == fold:
			return 0xFF
		case t == -1:
			return 0xFE
		case t >= 0 && t < end && t < 0xFD:
			return byte(t)
		}
		return 0xFD
	}
	data = []byte{0, 0xFF, 0, 0}
	if noFold {
		data[0] = 2
	}
	for i, v := range args {
		switch {
		case v >= 0 && v < 0x80:
			data[2+i] = byte(v)
		case v < 0 && v >= -64:
			data[2+i] = byte(0x7F - v)
		default:
			data[2+i] = 0xC0 + idx(slices.Index([]int64{1 << 40, math.MinInt64, math.MaxInt64}, v))
		}
	}
	for _, in := range body {
		switch in.Op {
		case obj.OpConst:
			if in.Imm == int64(int8(in.Imm)) {
				data = append(data, fzConst, r(in.Dst), small(in.Imm))
			} else {
				data = append(data, fzConstBig, r(in.Dst), idx(slices.Index(fuzzImms, in.Imm)))
			}
		case obj.OpMov:
			data = append(data, fzMov, r(in.Dst), r(in.A))
		case obj.OpBin:
			data = append(data, fzBin, idx(slices.Index(fuzzBinToks, cmini.Tok(in.Tok))), r(in.Dst), r(in.A), r(in.B))
		case obj.OpUn:
			data = append(data, fzUn, idx(slices.Index(fuzzUnToks, cmini.Tok(in.Tok))), r(in.Dst), r(in.A))
		case obj.OpLoad:
			data = append(data, fzLoad, r(in.Dst), r(in.A))
		case obj.OpStore:
			data = append(data, fzStore, r(in.A), r(in.B))
		case obj.OpAddrGlobal:
			data = append(data, fzAddrGlobal, r(in.Dst), idx(slices.Index(fuzzGlobals, in.Sym)))
		case obj.OpAddrLocal:
			data = append(data, fzAddrLocal, r(in.Dst), small(in.Imm))
		case obj.OpAddrString:
			data = append(data, fzAddrString, r(in.Dst), small(in.Imm))
		case obj.OpCall, obj.OpCallInd:
			if in.Op == obj.OpCall {
				data = append(data, fzCall, r(in.Dst), idx(slices.Index(fuzzCallees, in.Sym)))
			} else {
				data = append(data, fzCallInd, r(in.Dst), r(in.A))
			}
			ok = ok && len(in.Args) <= 2
			regs := append(slices.Clone(in.Args), 0, 0)
			data = append(data, byte(len(in.Args)), r(regs[0]), r(regs[1]))
		case obj.OpJump:
			data = append(data, fzJump, tgt(in.Targets[0]))
		case obj.OpBranch:
			data = append(data, fzBranch, r(in.A), tgt(in.Targets[0]), tgt(in.Targets[1]))
		case obj.OpRet:
			val := byte(0)
			if in.HasVal {
				val = 1
			}
			data = append(data, fzRet, val, r(in.A))
		default:
			data = append(data, fzBadOp)
		}
	}
	return data, ok
}
