package compile

import (
	"fmt"
	"math/bits"
	"sync"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// scratch is the working storage of the passes after lowering: basic
// blocks, value numbering, dead-code elimination and register
// renumbering. A file's functions share one, each pass leaving it ready
// for the next function, and scratchPool keeps it, with the capacity it
// has grown, for the next file.
type scratch struct {
	// The basic blocks of the function last split, and their edges.
	blocks  []basicBlock
	edges   []int
	leader  []bool
	blockAt []int

	vn valueNumberer

	// Dead-code elimination: kept instructions, reads per register, each
	// register's pure definers, the worklist, and compaction's map.
	keep            []bool
	uses, defHead   []int32
	defNext, work   []int32
	stack, newIndex []int

	// Renumbering: liveness rows, intervals and register ends, the scan
	// order, and the new registers.
	live          []uint64
	lo, hi, busy  []int
	starts, order []int
	newReg        []obj.Reg
}

// scratchPool keeps scratch for the next file. It is a sync.Pool, not
// a free list, so the collector drops what no compile is using.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are whatever the array held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// optimize runs the intra-file optimizer over every function: inlining
// (within this object file only), then local value numbering (constant
// folding + common subexpression elimination) and dead-code elimination.
func (s *scratch) optimize(f *obj.File, opts Options) {
	inlineLimit := opts.InlineLimit
	if inlineLimit == 0 {
		inlineLimit = DefaultInlineLimit
	}
	growthLimit := opts.GrowthLimit
	if growthLimit == 0 {
		growthLimit = DefaultGrowthLimit
	}
	defer clear(s.vn.syms)
	pass := func() {
		for _, fn := range f.Funcs {
			if !opts.DisableCSE {
				s.valueNumber(fn)
			}
			s.deadCode(fn)
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
// each block to its successors, in code order. The blocks are valid
// until the next call.
func (s *scratch) basicBlocks(fn *obj.Func) []basicBlock {
	n := len(fn.Code)
	leader := resize(s.leader, n+1)
	clear(leader)
	leader[0] = true
	for i := range fn.Code {
		switch in := &fn.Code[i]; in.Op {
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
	blocks := resize(s.blocks, nblocks)[:0]
	edges := resize(s.edges, 2*nblocks)[:0] // every block's succs, at most two each
	blockAt := resize(s.blockAt, n)
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
	s.leader, s.blocks, s.edges, s.blockAt = leader, blocks, edges, blockAt
	return blocks
}

// exprKey identifies a pure computation for value numbering: its opcode
// and operator, its operands' value numbers, and its immediate — for
// OpAddrGlobal, the symbol's number among the file's (valueNumberer.syms).
type exprKey struct {
	op, tok, a, b int32
	imm           int64
}

// exprTable maps expressions to value numbers as a scoped hash table
// (Briggs, Cooper and Simpson, "Value Numbering", SP&E 1997). Entries
// are appended to a log and each bucket's chain runs through the log,
// newest first, so a newer entry shadows an older one with the same
// key; a kill is an entry with value number 0. Returning to an earlier
// point pops the log, giving each popped entry's bucket back the head
// it had before.
type exprTable struct {
	heads   []int32 // bucket -> 1 + index of its newest entry; 0 if none
	entries []exprEntry
	shift   uint // 64 - log2(len(heads))
}

// exprEntry is one entry of the log: key's value number from here on,
// and 1 + the index of the next older entry in its bucket (0 ends it).
type exprEntry struct {
	key  exprKey
	vn   int32
	next int32
}

func (t *exprTable) bucket(k exprKey) int {
	h := uint64(uint32(k.a))<<32 | uint64(uint32(k.b))
	h ^= uint64(k.imm) * 0x9e3779b97f4a7c15
	h ^= uint64(uint32(k.op)<<16|uint32(k.tok)) * 0xc2b2ae3d27d4eb4f
	h ^= h >> 31
	return int(h * 0xbf58476d1ce4e5b9 >> t.shift)
}

// lookup returns k's value number, or 0 if it has none.
func (t *exprTable) lookup(k exprKey) int {
	for i := t.heads[t.bucket(k)]; i != 0; {
		e := &t.entries[i-1]
		if e.key == k {
			return int(e.vn)
		}
		i = e.next
	}
	return 0
}

// set gives k the value number vn (0 kills it) until the log is popped
// past this entry.
func (t *exprTable) set(k exprKey, vn int) {
	if len(t.entries) >= len(t.heads) {
		t.grow()
	}
	b := t.bucket(k)
	t.entries = append(t.entries, exprEntry{k, int32(vn), t.heads[b]})
	t.heads[b] = int32(len(t.entries))
}

// grow doubles the buckets and rechains the log in order, so every
// chain still runs newest first.
func (t *exprTable) grow() {
	n := max(2*len(t.heads), 64)
	t.heads = make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := range t.entries {
		b := t.bucket(t.entries[i].key)
		t.entries[i].next = t.heads[b]
		t.heads[b] = int32(i + 1)
	}
}

// popTo removes the entries from index n on, newest first.
func (t *exprTable) popTo(n int) {
	for i := len(t.entries) - 1; i >= n; i-- {
		t.heads[t.bucket(t.entries[i].key)] = t.entries[i].next
	}
	t.entries = t.entries[:n]
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
	exprs   exprTable
	syms    map[string]int64 // the file's symbols, numbered for exprKey
	// loads lists the exprs entries of load expressions; those from
	// loadsFrom on have not been killed since.
	loads     []int32
	loadsFrom int
	log       []vnUndo // earlier contents of regVN, regHeld and vns[].reg

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

// vnMark is a program point valueNumberer can return to.
type vnMark struct{ log, exprs, loads, loadsFrom, vns int }

func (v *valueNumberer) mark() vnMark {
	return vnMark{len(v.log), len(v.exprs.entries), len(v.loads), v.loadsFrom, len(v.vns)}
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
	v.exprs.popTo(m.exprs)
	v.loads, v.loadsFrom = v.loads[:m.loads], m.loadsFrom
	v.vns = v.vns[:m.vns]
}

func (v *valueNumberer) setRegVN(r obj.Reg, vn int) {
	v.log = append(v.log, vnUndo{tabRegVN, int32(r), int32(v.regVN[r])})
	v.regVN[r] = vn
}

// symbol returns name's number among the file's symbols.
func (v *valueNumberer) symbol(name string) int64 {
	n, ok := v.syms[name]
	if !ok {
		if v.syms == nil {
			v.syms = map[string]int64{}
		}
		n = int64(len(v.syms))
		v.syms[name] = n
	}
	return n
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
	for _, i := range v.loads[v.loadsFrom:] {
		if k := v.exprs.entries[i].key; v.exprs.lookup(k) != 0 {
			v.exprs.set(k, 0)
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

func (v *valueNumberer) setDst(dst obj.Reg, key exprKey, isLoad bool) {
	vn := v.newVN()
	v.setRegVN(dst, vn)
	v.exprs.set(key, vn)
	v.hold(dst, vn)
	if isLoad {
		v.loads = append(v.loads, int32(len(v.exprs.entries)-1))
	}
}

func (v *valueNumberer) setConst(dst obj.Reg, c int64) {
	vn := v.newVN()
	v.setRegVN(dst, vn)
	v.vns[vn].isConst, v.vns[vn].val = true, c
	v.exprs.set(exprKey{op: int32(obj.OpConst), imm: c}, vn)
	v.hold(dst, vn)
}

// reuse replaces the instruction with a Mov from the register that
// already holds the value, if one is live; it reports success.
func (v *valueNumberer) reuse(in *obj.Instr, key exprKey) bool {
	if vn := v.exprs.lookup(key); vn != 0 {
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
func (s *scratch) valueNumber(fn *obj.Func) {
	blocks := s.basicBlocks(fn)
	v := &s.vn
	// Predecessor counts, and each block's last-linked predecessor: its
	// sole one when the count is 1.
	nb := len(blocks)
	predCount := resize(v.firstChild, nb)
	clear(predCount)
	solePred := resize(v.nextSibling, nb)
	for b, blk := range blocks {
		for _, succ := range blk.succs {
			predCount[succ]++
			solePred[succ] = b
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
	// regVN and regHeld are all zero between functions, and the table's
	// buckets all empty, as every change to them is undone.
	v.regVN = resize(v.regVN, fn.NRegs)
	v.regHeld = resize(v.regHeld, fn.NRegs)
	v.vns = append(v.vns[:0], vnInfo{reg: obj.NoReg})
	if v.exprs.heads == nil {
		v.exprs.grow()
	}
	for b := range blocks {
		if parent[b] < 0 {
			v.walk(fn.Code, blocks, b)
		}
	}
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
			key := exprKey{op: int32(obj.OpConst), imm: in.Imm}
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
			key := exprKey{op: int32(obj.OpBin), tok: int32(in.Tok), a: int32(va), b: int32(vb)}
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
			key := exprKey{op: int32(obj.OpUn), tok: int32(in.Tok), a: int32(va)}
			if v.reuse(in, key) {
				continue
			}
			v.setDst(in.Dst, key, false)
		case obj.OpAddrGlobal:
			key := exprKey{op: int32(obj.OpAddrGlobal), imm: v.symbol(in.Sym)}
			if v.reuse(in, key) {
				continue
			}
			v.setDst(in.Dst, key, false)
		case obj.OpAddrLocal, obj.OpAddrString:
			key := exprKey{op: int32(in.Op), imm: in.Imm}
			if v.reuse(in, key) {
				continue
			}
			v.setDst(in.Dst, key, false)
		case obj.OpLoad:
			key := exprKey{op: int32(obj.OpLoad), a: int32(v.vnOf(in.A))}
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

// deadCode removes the instructions control never reaches, the
// self-moves, and the pure instructions whose results no kept
// instruction reads, then compacts the code once, moving each jump
// target that pointed at a removed instruction to the next kept one.
// Removing an instruction drops its reads, which can leave other
// results unread, so it works through a worklist over each register's
// count of reads. The rule is monotone, so the worklist reaches the
// least fixpoint: the instructions that rounds of removing and
// recompacting until nothing changes remove.
func (s *scratch) deadCode(fn *obj.Func) {
	code := fn.Code
	keep := s.reachable(code)
	// Reads by reachable instructions, and each register's reachable
	// pure definers, chained through defNext (1 + index; 0 ends it).
	uses := resize(s.uses, fn.NRegs)
	defHead := resize(s.defHead, fn.NRegs)
	clear(uses)
	clear(defHead)
	defNext := resize(s.defNext, len(code))
	for i := range code {
		if !keep[i] {
			continue
		}
		in := &code[i]
		operands(in, func(r *obj.Reg, def bool) {
			if !def {
				uses[*r]++
			}
		})
		if pure(in.Op) {
			defNext[i], defHead[in.Dst] = defHead[in.Dst], int32(i+1)
		}
	}
	removed := false
	work := s.work[:0]
	drop := func(i int) {
		keep[i], removed = false, true
		work = append(work, int32(i))
	}
	for i := range code {
		switch in := &code[i]; {
		case !keep[i]:
			removed = true
		case in.Op == obj.OpMov && in.A == in.Dst, pure(in.Op) && uses[in.Dst] == 0:
			drop(i)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		operands(&code[i], func(r *obj.Reg, def bool) {
			if def {
				return
			}
			if uses[*r]--; uses[*r] == 0 {
				for j := defHead[*r]; j != 0; j = defNext[j-1] {
					if keep[j-1] {
						drop(int(j - 1))
					}
				}
			}
		})
	}
	s.uses, s.defHead, s.defNext, s.work = uses, defHead, defNext, work
	if removed {
		s.compact(fn, keep)
	}
}

// reachable marks the instructions control can reach from entry.
func (s *scratch) reachable(code []obj.Instr) []bool {
	seen := resize(s.keep, len(code))
	clear(seen)
	stack := s.stack[:0]
	if len(code) > 0 {
		stack = append(stack, 0)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i < len(code) && !seen[i] {
			seen[i] = true
			in := &code[i]
			switch in.Op {
			case obj.OpJump:
				i = in.Targets[0]
			case obj.OpBranch:
				stack = append(stack, in.Targets[1])
				i = in.Targets[0]
			case obj.OpRet:
				i = len(code)
			default:
				i++
			}
		}
	}
	s.keep, s.stack = seen, stack
	return seen
}

// compact rewrites fn.Code in place keeping only instructions marked
// keep, remapping jump and branch targets. Targets that point at
// removed instructions move to the next kept instruction.
func (s *scratch) compact(fn *obj.Func, keep []bool) {
	newIndex := resize(s.newIndex, len(fn.Code)+1)
	s.newIndex = newIndex
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
		in := &fn.Code[i]
		switch in.Op {
		case obj.OpJump:
			in.Targets[0] = newIndex[in.Targets[0]]
		case obj.OpBranch:
			in.Targets[0] = newIndex[in.Targets[0]]
			in.Targets[1] = newIndex[in.Targets[1]]
		}
		if n != i {
			fn.Code[n] = *in
		}
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
