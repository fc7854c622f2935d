package compile

import (
	"fmt"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// optimize runs the intra-file optimizer over every function: inlining
// (within this object file only), then local value numbering (constant
// folding + common subexpression elimination) and dead-code elimination.
func optimize(f *obj.File, opts Options) {
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
				valueNumber(fn)
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

// basicBlock is a maximal straight-line run fn.Code[start:end) and the
// blocks control can reach from its last instruction.
type basicBlock struct {
	start, end int
	succs      []int
}

// basicBlocks splits fn's code at its leaders — entry, branch and jump
// targets, and the instruction after every control transfer — and links
// each block to its successors, in code order.
func basicBlocks(fn *obj.Func) []basicBlock {
	n := len(fn.Code)
	leader := make([]bool, n+1)
	leader[0] = true
	for i, in := range fn.Code {
		switch in.Op {
		case obj.OpJump:
			leader[in.Targets[0]] = true
			leader[i+1] = true
		case obj.OpBranch:
			leader[in.Targets[0]] = true
			leader[in.Targets[1]] = true
			leader[i+1] = true
		case obj.OpRet:
			leader[i+1] = true
		}
	}
	var blocks []basicBlock
	blockAt := make([]int, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		for k := i; k < j; k++ {
			blockAt[k] = len(blocks)
		}
		blocks = append(blocks, basicBlock{start: i, end: j})
		i = j
	}
	for b := range blocks {
		blk := &blocks[b]
		edge := func(to int) {
			if to < n {
				blk.succs = append(blk.succs, blockAt[to])
			}
		}
		switch last := &fn.Code[blk.end-1]; last.Op {
		case obj.OpJump:
			edge(last.Targets[0])
		case obj.OpBranch:
			edge(last.Targets[0])
			edge(last.Targets[1])
		case obj.OpRet:
		default:
			edge(blk.end)
		}
	}
	return blocks
}

// vnKey identifies a pure computation for value numbering.
type vnKey struct {
	op   obj.Op
	tok  int
	a, b int // value numbers of operands
	imm  int64
	sym  string
}

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

// valueNumber performs extended-basic-block value numbering: it folds
// constant expressions (using the machine's exact ALU semantics) and
// replaces recomputed pure expressions — including redundant loads — with
// the register that already holds the value. State flows into a block
// that has exactly one (earlier) predecessor, so chains of conditionals
// (a flattened component pipeline) share subexpressions across blocks.
// This is the pass that, after flattening + inlining, "eliminates
// redundant reads via common subexpression elimination" (§6).
func valueNumber(fn *obj.Func) {
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

// defines reports whether op writes its Dst register.
func defines(op obj.Op) bool {
	switch op {
	case obj.OpConst, obj.OpMov, obj.OpBin, obj.OpUn, obj.OpLoad,
		obj.OpAddrGlobal, obj.OpAddrLocal, obj.OpAddrString,
		obj.OpCall, obj.OpCallInd:
		return true
	}
	return false
}

// operands calls f with a pointer to each register operand of in: the
// registers it reads, then the one it defines. Call argument slices may
// be shared between instructions; copy in.Args before writing through
// its pointers.
func operands(in *obj.Instr, f func(r *obj.Reg, def bool)) {
	switch in.Op {
	case obj.OpMov, obj.OpUn, obj.OpLoad, obj.OpBranch, obj.OpCallInd:
		f(&in.A, false)
	case obj.OpBin, obj.OpStore:
		f(&in.A, false)
		f(&in.B, false)
	case obj.OpRet:
		if in.HasVal {
			f(&in.A, false)
		}
	}
	if in.Op == obj.OpCall || in.Op == obj.OpCallInd {
		for i := range in.Args {
			f(&in.Args[i], false)
		}
	}
	if defines(in.Op) {
		f(&in.Dst, true)
	}
}

// pure reports whether an instruction can be deleted if its result is
// unused.
func pure(op obj.Op) bool {
	switch op {
	case obj.OpConst, obj.OpMov, obj.OpBin, obj.OpUn, obj.OpLoad,
		obj.OpAddrGlobal, obj.OpAddrLocal, obj.OpAddrString:
		return true
	}
	return false
}

// deadCode removes pure instructions whose results are never read
// (flow-insensitively) and compacts the code, fixing jump targets.
func deadCode(fn *obj.Func) {
	for {
		reach := reachable(fn)
		read := make([]bool, fn.NRegs)
		for i := range fn.Code {
			if !reach[i] {
				continue
			}
			operands(&fn.Code[i], func(r *obj.Reg, def bool) {
				if !def {
					read[*r] = true
				}
			})
		}
		// Parameters are implicitly live on entry (their registers are
		// the calling convention), but an unread parameter costs nothing.
		keep := make([]bool, len(fn.Code))
		removed := false
		for i := range fn.Code {
			in := &fn.Code[i]
			if !reach[i] {
				removed = true
				continue
			}
			if pure(in.Op) && !read[in.Dst] {
				removed = true
				continue
			}
			if in.Op == obj.OpMov && in.A == in.Dst {
				removed = true
				continue
			}
			keep[i] = true
		}
		if !removed {
			return
		}
		compact(fn, keep)
	}
}

// reachable marks instructions reachable from entry by control flow.
func reachable(fn *obj.Func) []bool {
	seen := make([]bool, len(fn.Code))
	var stack []int
	if len(fn.Code) > 0 {
		stack = append(stack, 0)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i < len(fn.Code) && !seen[i] {
			seen[i] = true
			in := &fn.Code[i]
			switch in.Op {
			case obj.OpJump:
				i = in.Targets[0]
			case obj.OpBranch:
				stack = append(stack, in.Targets[1])
				i = in.Targets[0]
			case obj.OpRet:
				i = len(fn.Code)
			default:
				i++
			}
		}
	}
	return seen
}

// compact rebuilds fn.Code keeping only instructions marked keep,
// remapping jump and branch targets. Targets that point at removed
// instructions move to the next kept instruction.
func compact(fn *obj.Func, keep []bool) {
	newIndex := make([]int, len(fn.Code)+1)
	n := 0
	for i := range fn.Code {
		newIndex[i] = n
		if keep[i] {
			n++
		}
	}
	newIndex[len(fn.Code)] = n
	out := make([]obj.Instr, 0, n)
	for i := range fn.Code {
		if !keep[i] {
			continue
		}
		in := fn.Code[i]
		switch in.Op {
		case obj.OpJump:
			in.Targets[0] = newIndex[in.Targets[0]]
		case obj.OpBranch:
			in.Targets[0] = newIndex[in.Targets[0]]
			in.Targets[1] = newIndex[in.Targets[1]]
		}
		out = append(out, in)
	}
	fn.Code = out
}

// Disasm renders a function's IR for debugging and tests.
func Disasm(fn *obj.Func) string {
	s := fmt.Sprintf("func %s (args=%d regs=%d frame=%d)\n",
		fn.Name, fn.NArgs, fn.NRegs, fn.Frame)
	for i, in := range fn.Code {
		s += fmt.Sprintf("%4d  %-8s", i, in.Op)
		switch in.Op {
		case obj.OpConst:
			s += fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
		case obj.OpMov:
			s += fmt.Sprintf("r%d = r%d", in.Dst, in.A)
		case obj.OpBin:
			s += fmt.Sprintf("r%d = r%d %s r%d", in.Dst, in.A, cmini.Tok(in.Tok), in.B)
		case obj.OpUn:
			s += fmt.Sprintf("r%d = %s r%d", in.Dst, cmini.Tok(in.Tok), in.A)
		case obj.OpLoad:
			s += fmt.Sprintf("r%d = [r%d]", in.Dst, in.A)
		case obj.OpStore:
			s += fmt.Sprintf("[r%d] = r%d", in.A, in.B)
		case obj.OpAddrGlobal:
			s += fmt.Sprintf("r%d = &%s", in.Dst, in.Sym)
		case obj.OpAddrLocal:
			s += fmt.Sprintf("r%d = fp+%d", in.Dst, in.Imm)
		case obj.OpAddrString:
			s += fmt.Sprintf("r%d = &str[%d]", in.Dst, in.Imm)
		case obj.OpCall:
			s += fmt.Sprintf("r%d = %s%v", in.Dst, in.Sym, in.Args)
		case obj.OpCallInd:
			s += fmt.Sprintf("r%d = (*r%d)%v", in.Dst, in.A, in.Args)
		case obj.OpJump:
			s += fmt.Sprintf("-> %d", in.Targets[0])
		case obj.OpBranch:
			s += fmt.Sprintf("r%d ? %d : %d", in.A, in.Targets[0], in.Targets[1])
		case obj.OpRet:
			if in.HasVal {
				s += fmt.Sprintf("r%d", in.A)
			}
		}
		s += "\n"
	}
	return s
}
