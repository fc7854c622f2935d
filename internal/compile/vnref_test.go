package compile

// The optimizer and register renumbering the compiler shipped before
// value numbering kept its expressions in a scoped hash table and
// dead-code elimination became one worklist pass. Value numbering
// copies its predecessor's maps into every block with one earlier
// predecessor, dead-code elimination recomputes reachability and the
// registers read and recompacts the code until nothing changes, and
// renumbering allocates its tables per function and sorts its
// intervals with slices.SortFunc. Basic blocks are split by the same
// code as the compiler's, on fresh scratch. The pipeline is kept,
// unchanged, as the reference the compiler must match instruction for
// instruction (FuzzValueNumber, and the repository-wide oracle in
// vnoracle_test.go).

import (
	"math"
	"math/bits"
	"slices"

	"knit/internal/cmini"
	"knit/internal/obj"
)

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

// valueNumberReference performs extended-basic-block value numbering: it folds
// constant expressions (using the machine's exact ALU semantics) and
// replaces recomputed pure expressions — including redundant loads — with
// the register that already holds the value. State flows into a block
// that has exactly one (earlier) predecessor, so chains of conditionals
// (a flattened component pipeline) share subexpressions across blocks.
// This is the pass that, after flattening + inlining, "eliminates
// redundant reads via common subexpression elimination" (§6).
func valueNumberReference(fn *obj.Func) {
	blocks := new(scratch).basicBlocks(fn)
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

// optimizeReference is optimize with valueNumberReference and
// deadCodeReference.
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
			deadCodeReference(fn)
		}
	}
	pass()
	if inlineLimit > 0 {
		inlineFile(f, inlineLimit, growthLimit)
	}
	pass()
}

// CompileReference is Compile with the reference optimizer and
// renumbering, for the oracle tests outside this package.
func CompileReference(f *cmini.File, opts Options) (*obj.File, error) {
	out, err := lower(f)
	if err != nil {
		return nil, err
	}
	if opts.Opt {
		optimizeReference(out, opts)
	}
	for _, fn := range out.Funcs {
		renumberReference(fn)
	}
	return out, nil
}

// deadCodeReference removes pure instructions whose results are never
// read (flow-insensitively) and compacts the code, fixing jump targets,
// in rounds until a round removes nothing.
func deadCodeReference(fn *obj.Func) {
	for {
		reach := reachableReference(fn)
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
		compactReference(fn, keep)
	}
}

// reachableReference marks instructions reachable from entry by control flow.
func reachableReference(fn *obj.Func) []bool {
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

// compactReference rewrites fn.Code in place keeping only instructions marked
// keep, remapping jump and branch targets. Targets that point at
// removed instructions move to the next kept instruction.
func compactReference(fn *obj.Func, keep []bool) {
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

// renumberReference is renumber as it was, with per-function tables and
// a sorted scan order: see renumber.go for the algorithm.
func renumberReference(fn *obj.Func) {
	code := fn.Code
	nr := fn.NRegs
	words := (nr + 63) / 64

	blocks := new(scratch).basicBlocks(fn)
	nb := len(blocks)

	// Backward liveness: in = gen ∪ (out ∖ kill), out = ∪ in(succ).
	set := func() [][]uint64 {
		rows := make([][]uint64, nb)
		flat := make([]uint64, nb*words)
		for b := range rows {
			rows[b] = flat[b*words : (b+1)*words]
		}
		return rows
	}
	gen, kill, liveIn, liveOut := set(), set(), set(), set()
	for b, blk := range blocks {
		for i := blk.start; i < blk.end; i++ {
			operands(&code[i], func(r *obj.Reg, def bool) {
				w, bit := *r/64, uint64(1)<<(*r%64)
				if def {
					kill[b][w] |= bit
				} else if kill[b][w]&bit == 0 {
					gen[b][w] |= bit // read before any write in the block
				}
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			out := liveOut[b]
			for _, s := range blocks[b].succs {
				for w, v := range liveIn[s] {
					out[w] |= v
				}
			}
			for w := range out {
				if v := gen[b][w] | out[w]&^kill[b][w]; v != liveIn[b][w] {
					liveIn[b][w] = v
					changed = true
				}
			}
		}
	}

	// Live intervals, as [lo, hi] hulls of program points.
	lo, hi := make([]int, nr), make([]int, nr)
	for r := range lo {
		lo[r], hi[r] = math.MaxInt, -1
	}
	touch := func(r, p int) {
		lo[r], hi[r] = min(lo[r], p), max(hi[r], p)
	}
	touchAll := func(row []uint64, p int) {
		for w, v := range row {
			for ; v != 0; v &= v - 1 {
				touch(64*w+bits.TrailingZeros64(v), p)
			}
		}
	}
	for b, blk := range blocks {
		touchAll(liveIn[b], 2*blk.start)
		touchAll(liveOut[b], 2*blk.end-1)
	}
	for i := range code {
		operands(&code[i], func(r *obj.Reg, def bool) {
			if def {
				touch(int(*r), 2*i+1)
			} else {
				touch(int(*r), 2*i)
			}
		})
	}

	// Linear scan. busy[p] is the last point of register p's current
	// interval; p is free for an interval starting after it.
	newReg := make([]obj.Reg, nr)
	var busy []int
	for r := 0; r < fn.NArgs; r++ {
		// Even an unread parameter holds its argument at point 0, so no
		// register live at entry may share it.
		newReg[r] = obj.Reg(r)
		busy = append(busy, max(hi[r], 0))
	}
	var order []int
	for r := fn.NArgs; r < nr; r++ {
		if hi[r] >= 0 {
			order = append(order, r)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if lo[a] != lo[b] {
			return lo[a] - lo[b]
		}
		return a - b
	})
	for _, r := range order {
		p := 0
		for p < len(busy) && busy[p] >= lo[r] {
			p++
		}
		if p == len(busy) {
			busy = append(busy, 0)
		}
		busy[p] = hi[r]
		newReg[r] = obj.Reg(p)
	}

	for i := range code {
		in := &code[i]
		if in.Args != nil {
			in.Args = append([]obj.Reg(nil), in.Args...)
		}
		operands(in, func(r *obj.Reg, _ bool) { *r = newReg[*r] })
	}
	fn.NRegs = len(busy)
}
