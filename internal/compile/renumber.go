package compile

import (
	"math"
	"math/bits"
	"slices"

	"knit/internal/obj"
)

// renumber reassigns fn's virtual registers by linear scan over live
// intervals, so a frame holds only as many registers as are live at
// once rather than one per temporary. It is the compiler's last pass
// and runs at every optimization level.
//
// Each instruction i has two program points: 2i, where it reads, and
// 2i+1, where it writes. A register's interval is the hull of the
// points where it is read, written, or live (backward liveness over
// basic blocks supplies the block-boundary points). Two registers whose
// intervals are disjoint are never written while the other is live, so
// they may share a register. Intervals are visited by (start, old
// register) and each takes the lowest register free at its start.
//
// Parameters keep registers 0..NArgs-1, the calling convention. A
// register live at entry — a local read before any write on some path —
// has an interval starting at point 0, so it gets a register no earlier
// interval used, and frame entry still zeroes it.
//
// Only register operands change: opcodes, immediates, symbols, branch
// targets and the instruction count stay the same, so text layout and
// every cost-model counter do too. An instruction whose last read of
// one register defines another may give both the same register; a mov
// can thereby become a self-move, which stays, because nothing runs
// after this pass and it deletes nothing.
func renumber(fn *obj.Func) {
	code := fn.Code
	nr := fn.NRegs
	words := (nr + 63) / 64

	blocks := basicBlocks(fn)
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
