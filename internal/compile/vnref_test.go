package compile

// The value numbering the compiler shipped before it walked the tree of
// extended basic blocks with scoped tables: every block with one
// earlier predecessor starts from a copy of that predecessor's maps.
// It is kept, unchanged, as the reference valueNumber must match
// instruction for instruction (TestValueNumberMatchesReference,
// FuzzValueNumber, and the repository-wide oracle in
// vnoracle_test.go).

import (
	"knit/internal/cmini"
	"knit/internal/obj"
)

// vnState is the value-numbering state at a program point.
type vnState struct {
	regVN    map[obj.Reg]int
	constVal map[int]int64
	hasConst map[int]bool
	exprVN   map[vnKey]int
	vnReg    map[int]obj.Reg
	regHeld  map[obj.Reg]int // inverse of vnReg: a register holds at most one entry
	loadVNs  map[vnKey]bool
}

func newVNState() *vnState {
	return &vnState{
		regVN:    map[obj.Reg]int{},
		constVal: map[int]int64{},
		hasConst: map[int]bool{},
		exprVN:   map[vnKey]int{},
		vnReg:    map[int]obj.Reg{},
		regHeld:  map[obj.Reg]int{},
		loadVNs:  map[vnKey]bool{},
	}
}

func (s *vnState) clone() *vnState {
	cp := newVNState()
	for k, v := range s.regVN {
		cp.regVN[k] = v
	}
	for k, v := range s.constVal {
		cp.constVal[k] = v
	}
	for k, v := range s.hasConst {
		cp.hasConst[k] = v
	}
	for k, v := range s.exprVN {
		cp.exprVN[k] = v
	}
	for k, v := range s.vnReg {
		cp.vnReg[k] = v
	}
	for k, v := range s.regHeld {
		cp.regHeld[k] = v
	}
	for k, v := range s.loadVNs {
		cp.loadVNs[k] = v
	}
	return cp
}

// valueNumberReference performs extended-basic-block value numbering: it folds
// constant expressions (using the machine's exact ALU semantics) and
// replaces recomputed pure expressions — including redundant loads — with
// the register that already holds the value. State flows into a block
// that has exactly one (earlier) predecessor, so chains of conditionals
// (a flattened component pipeline) share subexpressions across blocks.
// This is the pass that, after flattening + inlining, "eliminates
// redundant reads via common subexpression elimination" (§6).
func valueNumberReference(fn *obj.Func) {
	blocks := basicBlocks(fn)
	// Predecessor counts, and each block's last-linked predecessor: its
	// sole one when the count is 1.
	predCount := make([]int, len(blocks))
	solePred := make([]int, len(blocks))
	for b := range solePred {
		solePred[b] = -1
	}
	for b, blk := range blocks {
		for _, s := range blk.succs {
			predCount[s]++
			solePred[s] = b
		}
	}
	endState := make([]*vnState, len(blocks))

	var nextVN int
	var st *vnState
	vnOf := func(r obj.Reg) int {
		if vn, ok := st.regVN[r]; ok {
			return vn
		}
		nextVN++
		st.regVN[r] = nextVN
		return nextVN
	}
	newVN := func() int { nextVN++; return nextVN }
	killLoads := func() {
		for k := range st.loadVNs {
			delete(st.exprVN, k)
			delete(st.loadVNs, k)
		}
	}
	// release drops the reverse mapping of the value dst held, if any:
	// dst is being redefined.
	release := func(dst obj.Reg) {
		if vn, ok := st.regHeld[dst]; ok {
			delete(st.vnReg, vn)
			delete(st.regHeld, dst)
		}
	}
	hold := func(dst obj.Reg, vn int) {
		release(dst)
		st.vnReg[vn] = dst
		st.regHeld[dst] = vn
	}
	setDst := func(dst obj.Reg, key vnKey, isLoad bool) {
		vn := newVN()
		st.regVN[dst] = vn
		st.exprVN[key] = vn
		hold(dst, vn)
		if isLoad {
			st.loadVNs[key] = true
		}
	}
	setConst := func(dst obj.Reg, v int64) {
		vn := newVN()
		st.regVN[dst] = vn
		st.constVal[vn] = v
		st.hasConst[vn] = true
		st.exprVN[vnKey{op: obj.OpConst, imm: v}] = vn
		hold(dst, vn)
	}
	// reuse replaces the instruction with a Mov from the register that
	// already holds the value, if one is live; it reports success.
	reuse := func(in *obj.Instr, key vnKey) bool {
		if vn, ok := st.exprVN[key]; ok {
			if r, live := st.vnReg[vn]; live && r != in.Dst {
				*in = obj.Instr{Op: obj.OpMov, Dst: in.Dst, A: r, B: obj.NoReg}
				release(in.Dst)
				st.regVN[in.Dst] = vn
				return true
			}
		}
		return false
	}

	for b := range blocks {
		if predCount[b] == 1 && solePred[b] >= 0 && solePred[b] < b && endState[solePred[b]] != nil {
			st = endState[solePred[b]].clone()
		} else {
			st = newVNState()
		}
		for i := blocks[b].start; i < blocks[b].end; i++ {
			in := &fn.Code[i]
			switch in.Op {
			case obj.OpConst:
				key := vnKey{op: obj.OpConst, imm: in.Imm}
				if reuse(in, key) {
					continue
				}
				setConst(in.Dst, in.Imm)
			case obj.OpMov:
				vn := vnOf(in.A)
				st.regVN[in.Dst] = vn
			case obj.OpBin:
				va, vb := vnOf(in.A), vnOf(in.B)
				if st.hasConst[va] && st.hasConst[vb] {
					if v, err := obj.EvalBin(cmini.Tok(in.Tok), st.constVal[va], st.constVal[vb]); err == nil {
						*in = obj.Instr{Op: obj.OpConst, Dst: in.Dst, Imm: v, A: obj.NoReg, B: obj.NoReg}
						setConst(in.Dst, v)
						continue
					}
				}
				key := vnKey{op: obj.OpBin, tok: in.Tok, a: va, b: vb}
				if reuse(in, key) {
					continue
				}
				setDst(in.Dst, key, false)
			case obj.OpUn:
				va := vnOf(in.A)
				if st.hasConst[va] {
					if v, err := obj.EvalUn(cmini.Tok(in.Tok), st.constVal[va]); err == nil {
						*in = obj.Instr{Op: obj.OpConst, Dst: in.Dst, Imm: v, A: obj.NoReg, B: obj.NoReg}
						setConst(in.Dst, v)
						continue
					}
				}
				key := vnKey{op: obj.OpUn, tok: in.Tok, a: va}
				if reuse(in, key) {
					continue
				}
				setDst(in.Dst, key, false)
			case obj.OpAddrGlobal:
				key := vnKey{op: obj.OpAddrGlobal, sym: in.Sym}
				if reuse(in, key) {
					continue
				}
				setDst(in.Dst, key, false)
			case obj.OpAddrLocal, obj.OpAddrString:
				key := vnKey{op: in.Op, imm: in.Imm}
				if reuse(in, key) {
					continue
				}
				setDst(in.Dst, key, false)
			case obj.OpLoad:
				va := vnOf(in.A)
				key := vnKey{op: obj.OpLoad, a: va}
				if reuse(in, key) {
					continue
				}
				setDst(in.Dst, key, true)
			case obj.OpStore:
				// Conservative: any store may alias any load.
				killLoads()
			case obj.OpCall, obj.OpCallInd:
				killLoads()
				st.regVN[in.Dst] = newVN()
			}
			// A register redefined by a mov or call loses its stale
			// reverse mapping: if Dst held an older vn, drop it.
			if defines(in.Op) {
				if vn, ok := st.regHeld[in.Dst]; ok && st.regVN[in.Dst] != vn {
					release(in.Dst)
				}
			}
		}
		endState[b] = st
	}
}

// optimizeReference is optimize with valueNumberReference.
func optimizeReference(f *obj.File, opts Options) {
	inlineLimit := opts.InlineLimit
	if inlineLimit == 0 {
		inlineLimit = DefaultInlineLimit
	}
	growthLimit := opts.GrowthLimit
	if growthLimit == 0 {
		growthLimit = DefaultGrowthLimit
	}
	pass := func() {
		for _, fn := range f.Funcs {
			if !opts.DisableCSE {
				valueNumberReference(fn)
			}
			deadCode(fn)
		}
	}
	pass()
	if inlineLimit > 0 {
		inlineFile(f, inlineLimit, growthLimit)
	}
	pass()
}

// CompileReference is Compile with the reference value numbering, for
// the oracle tests outside this package.
func CompileReference(f *cmini.File, opts Options) (*obj.File, error) {
	out, err := lower(f)
	if err != nil {
		return nil, err
	}
	if opts.Opt {
		optimizeReference(out, opts)
	}
	for _, fn := range out.Funcs {
		renumber(fn)
	}
	return out, nil
}
