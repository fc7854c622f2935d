package compile

import (
	"fmt"
	"sync"

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
	vn := vnPool.Get().(*valueNumberer)
	defer vnPool.Put(vn)
	pass := func() {
		for _, fn := range f.Funcs {
			if !opts.DisableCSE {
				vn.valueNumber(fn)
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
	nblocks := 0
	for _, l := range leader[:n] {
		if l {
			nblocks++
		}
	}
	blocks := make([]basicBlock, 0, nblocks)
	edges := make([]int, 0, 2*nblocks) // every block's succs, at most two each
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
		from := len(edges)
		edge := func(to int) {
			if to < n {
				edges = append(edges, blockAt[to])
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
		blk.succs = edges[from:len(edges):len(edges)]
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

// valueNumberer holds value numbering's state at one program point, as
// dense tables an undo log returns to any earlier point, and keeps them
// across the functions of a file. Value numbers start at 1, so 0 means
// "none"; they need only be unique among the numbers the state holds,
// so a number undone is given out again.
type valueNumberer struct {
	regVN   []int    // register -> its value number
	regHeld []int    // register -> the number whose holder it is (inverse of vns[].reg)
	vns     []vnInfo // value number -> what is known of it; vns[0] is unused
	exprVN  map[vnKey]int
	// loads lists the load expressions entered in exprVN; those from
	// loadsFrom on are still there.
	loads     []vnKey
	loadsFrom int
	log       []vnUndo   // earlier contents of regVN, regHeld and vns[].reg
	exprLog   []exprUndo // earlier contents of exprVN

	// Per-function scratch: the tree of extended blocks.
	parent, firstChild, nextSibling []int
}

// vnInfo is what is known of one value number: the register holding it,
// if any, and its constant value, if it has one.
type vnInfo struct {
	reg     obj.Reg // NoReg when no register holds it
	isConst bool
	val     int64
}

// vnUndo restores one table slot.
type vnUndo struct {
	table vnTable
	index int32
	old   int32
}

type vnTable uint8

const (
	tabRegVN vnTable = iota
	tabRegHeld
	tabVNReg
)

// exprUndo restores one exprVN entry; old 0 means it was absent.
type exprUndo struct {
	key vnKey
	old int
}

// vnMark is a program point valueNumberer can return to.
type vnMark struct{ log, exprLog, loads, loadsFrom, vns int }

// vnPool keeps valueNumberers, and the tables and logs they have grown,
// for the next file: each is back at the empty state when a function
// is done.
var vnPool = sync.Pool{New: func() any { return &valueNumberer{exprVN: map[vnKey]int{}} }}

func (v *valueNumberer) mark() vnMark {
	return vnMark{len(v.log), len(v.exprLog), len(v.loads), v.loadsFrom, len(v.vns)}
}

// undo returns the state to m, newest change first.
func (v *valueNumberer) undo(m vnMark) {
	for i := len(v.log) - 1; i >= m.log; i-- {
		switch e := v.log[i]; e.table {
		case tabRegVN:
			v.regVN[e.index] = int(e.old)
		case tabRegHeld:
			v.regHeld[e.index] = int(e.old)
		case tabVNReg:
			v.vns[e.index].reg = obj.Reg(e.old)
		}
	}
	v.log = v.log[:m.log]
	for i := len(v.exprLog) - 1; i >= m.exprLog; i-- {
		if e := &v.exprLog[i]; e.old == 0 {
			delete(v.exprVN, e.key)
		} else {
			v.exprVN[e.key] = e.old
		}
	}
	v.exprLog = v.exprLog[:m.exprLog]
	v.loads, v.loadsFrom = v.loads[:m.loads], m.loadsFrom
	v.vns = v.vns[:m.vns]
}

func (v *valueNumberer) setRegVN(r obj.Reg, vn int) {
	v.log = append(v.log, vnUndo{tabRegVN, int32(r), int32(v.regVN[r])})
	v.regVN[r] = vn
}

func (v *valueNumberer) setExpr(key vnKey, vn int) {
	v.exprLog = append(v.exprLog, exprUndo{key, v.exprVN[key]})
	v.exprVN[key] = vn
}

// newVN returns a fresh value number that no register holds.
func (v *valueNumberer) newVN() int {
	v.vns = append(v.vns, vnInfo{reg: obj.NoReg})
	return len(v.vns) - 1
}

func (v *valueNumberer) vnOf(r obj.Reg) int {
	if vn := v.regVN[r]; vn != 0 {
		return vn
	}
	vn := v.newVN()
	v.setRegVN(r, vn)
	return vn
}

func (v *valueNumberer) killLoads() {
	for _, k := range v.loads[v.loadsFrom:] {
		if old, ok := v.exprVN[k]; ok {
			v.exprLog = append(v.exprLog, exprUndo{k, old})
			delete(v.exprVN, k)
		}
	}
	v.loadsFrom = len(v.loads)
}

// release drops the reverse mapping of the value dst held, if any: dst
// is being redefined.
func (v *valueNumberer) release(dst obj.Reg) {
	if vn := v.regHeld[dst]; vn != 0 {
		v.log = append(v.log,
			vnUndo{tabVNReg, int32(vn), int32(v.vns[vn].reg)},
			vnUndo{tabRegHeld, int32(dst), int32(vn)})
		v.vns[vn].reg = obj.NoReg
		v.regHeld[dst] = 0
	}
}

// hold makes dst the holder of vn, a number newVN just gave out, so
// vns[vn] needs no undo entry.
func (v *valueNumberer) hold(dst obj.Reg, vn int) {
	v.release(dst)
	v.vns[vn].reg = dst
	v.log = append(v.log, vnUndo{tabRegHeld, int32(dst), int32(v.regHeld[dst])})
	v.regHeld[dst] = vn
}

func (v *valueNumberer) setDst(dst obj.Reg, key vnKey, isLoad bool) {
	vn := v.newVN()
	v.setRegVN(dst, vn)
	v.setExpr(key, vn)
	v.hold(dst, vn)
	if isLoad {
		v.loads = append(v.loads, key)
	}
}

func (v *valueNumberer) setConst(dst obj.Reg, c int64) {
	vn := v.newVN()
	v.setRegVN(dst, vn)
	v.vns[vn].isConst, v.vns[vn].val = true, c
	v.setExpr(vnKey{op: obj.OpConst, imm: c}, vn)
	v.hold(dst, vn)
}

// reuse replaces the instruction with a Mov from the register that
// already holds the value, if one is live; it reports success.
func (v *valueNumberer) reuse(in *obj.Instr, key vnKey) bool {
	if vn := v.exprVN[key]; vn != 0 {
		if r := v.vns[vn].reg; r != obj.NoReg && r != in.Dst {
			*in = obj.Instr{Op: obj.OpMov, Dst: in.Dst, A: r, B: obj.NoReg}
			v.release(in.Dst)
			v.setRegVN(in.Dst, vn)
			return true
		}
	}
	return false
}

// valueNumber performs extended-basic-block value numbering: it folds
// constant expressions (using the machine's exact ALU semantics) and
// replaces recomputed pure expressions — including redundant loads — with
// the register that already holds the value. State flows into a block
// that has exactly one (earlier) predecessor, so chains of conditionals
// (a flattened component pipeline) share subexpressions across blocks.
// This is the pass that, after flattening + inlining, "eliminates
// redundant reads via common subexpression elimination" (§6).
//
// Those blocks form a tree, each block the child of its sole earlier
// predecessor. The pass walks it depth first, undoing a block's changes
// once its subtree is done (Briggs, Cooper and Simpson, "Value
// Numbering", SP&E 1997), so each block starts from its parent's end
// state without a copy of it.
func (v *valueNumberer) valueNumber(fn *obj.Func) {
	blocks := basicBlocks(fn)
	// Predecessor counts, and each block's last-linked predecessor: its
	// sole one when the count is 1.
	nb := len(blocks)
	predCount := resize(v.firstChild, nb)
	clear(predCount)
	solePred := resize(v.nextSibling, nb)
	for b, blk := range blocks {
		for _, s := range blk.succs {
			predCount[s]++
			solePred[s] = b
		}
	}
	parent := resize(v.parent, nb)
	for b := range blocks {
		parent[b] = -1
		if predCount[b] == 1 && solePred[b] < b {
			parent[b] = solePred[b]
		}
	}
	// Children in code order: link them in from the last block back.
	firstChild, nextSibling := predCount, solePred
	for b := range blocks {
		firstChild[b] = -1
	}
	for b := nb - 1; b >= 0; b-- {
		if p := parent[b]; p >= 0 {
			nextSibling[b], firstChild[p] = firstChild[p], b
		}
	}
	v.firstChild, v.nextSibling, v.parent = firstChild, nextSibling, parent
	v.regVN = resize(v.regVN, fn.NRegs)
	v.regHeld = resize(v.regHeld, fn.NRegs)
	v.vns = append(v.vns[:0], vnInfo{reg: obj.NoReg})
	for b := range blocks {
		if parent[b] < 0 {
			v.walk(fn.Code, blocks, b)
		}
	}
}

// resize returns s with length n, reusing its array when it is large
// enough. regVN and regHeld are all zero between functions, as every
// change to them is undone.
func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// walk numbers block b and then its subtree, and undoes all of it.
func (v *valueNumberer) walk(code []obj.Instr, blocks []basicBlock, b int) {
	m := v.mark()
	v.block(code[blocks[b].start:blocks[b].end])
	for c := v.firstChild[b]; c >= 0; c = v.nextSibling[c] {
		v.walk(code, blocks, c)
	}
	v.undo(m)
}

// block numbers one basic block's instructions in order.
func (v *valueNumberer) block(code []obj.Instr) {
	for i := range code {
		in := &code[i]
		switch in.Op {
		case obj.OpConst:
			key := vnKey{op: obj.OpConst, imm: in.Imm}
			if v.reuse(in, key) {
				continue
			}
			v.setConst(in.Dst, in.Imm)
		case obj.OpMov:
			v.setRegVN(in.Dst, v.vnOf(in.A))
		case obj.OpBin:
			va, vb := v.vnOf(in.A), v.vnOf(in.B)
			if a, b := &v.vns[va], &v.vns[vb]; a.isConst && b.isConst {
				if c, err := obj.EvalBin(cmini.Tok(in.Tok), a.val, b.val); err == nil {
					*in = obj.Instr{Op: obj.OpConst, Dst: in.Dst, Imm: c, A: obj.NoReg, B: obj.NoReg}
					v.setConst(in.Dst, c)
					continue
				}
			}
			key := vnKey{op: obj.OpBin, tok: in.Tok, a: va, b: vb}
			if v.reuse(in, key) {
				continue
			}
			v.setDst(in.Dst, key, false)
		case obj.OpUn:
			va := v.vnOf(in.A)
			if a := &v.vns[va]; a.isConst {
				if c, err := obj.EvalUn(cmini.Tok(in.Tok), a.val); err == nil {
					*in = obj.Instr{Op: obj.OpConst, Dst: in.Dst, Imm: c, A: obj.NoReg, B: obj.NoReg}
					v.setConst(in.Dst, c)
					continue
				}
			}
			key := vnKey{op: obj.OpUn, tok: in.Tok, a: va}
			if v.reuse(in, key) {
				continue
			}
			v.setDst(in.Dst, key, false)
		case obj.OpAddrGlobal:
			key := vnKey{op: obj.OpAddrGlobal, sym: in.Sym}
			if v.reuse(in, key) {
				continue
			}
			v.setDst(in.Dst, key, false)
		case obj.OpAddrLocal, obj.OpAddrString:
			key := vnKey{op: in.Op, imm: in.Imm}
			if v.reuse(in, key) {
				continue
			}
			v.setDst(in.Dst, key, false)
		case obj.OpLoad:
			key := vnKey{op: obj.OpLoad, a: v.vnOf(in.A)}
			if v.reuse(in, key) {
				continue
			}
			v.setDst(in.Dst, key, true)
		case obj.OpStore:
			// Conservative: any store may alias any load.
			v.killLoads()
		case obj.OpCall, obj.OpCallInd:
			v.killLoads()
			v.setRegVN(in.Dst, v.newVN())
		}
		// A register redefined by a mov or call loses its stale
		// reverse mapping: if Dst held an older vn, drop it.
		if defines(in.Op) {
			if vn := v.regHeld[in.Dst]; vn != 0 && v.regVN[in.Dst] != vn {
				v.release(in.Dst)
			}
		}
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

// compact rewrites fn.Code in place keeping only instructions marked
// keep, remapping jump and branch targets. Targets that point at
// removed instructions move to the next kept instruction.
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
	n = 0
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
		fn.Code[n] = in
		n++
	}
	clear(fn.Code[n:]) // drop the removed instructions' Sym and Args
	fn.Code = fn.Code[:n]
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
