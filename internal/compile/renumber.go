package compile

import (
	"math"
	"math/bits"

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
func (s *scratch) renumber(fn *obj.Func) {
	code := fn.Code
	nr := fn.NRegs
	words := (nr + 63) / 64

	blocks := s.basicBlocks(fn)
	nb := len(blocks)

	// Backward liveness: in = gen ∪ (out ∖ kill), out = ∪ in(succ). Each
	// set is nb rows of words, block b's at [b*words, (b+1)*words).
	n := nb * words
	live := resize(s.live, 4*n)
	clear(live)
	s.live = live
	gen, kill, liveIn, liveOut := live[:n], live[n:2*n], live[2*n:3*n], live[3*n:]
	row := func(set []uint64, b int) []uint64 { return set[b*words : (b+1)*words] }
	for b, blk := range blocks {
		g, k := row(gen, b), row(kill, b)
		for i := blk.start; i < blk.end; i++ {
			operands(&code[i], func(r *obj.Reg, def bool) {
				w, bit := *r/64, uint64(1)<<(*r%64)
				if def {
					k[w] |= bit
				} else if k[w]&bit == 0 {
					g[w] |= bit // read before any write in the block
				}
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			out := row(liveOut, b)
			for _, succ := range blocks[b].succs {
				for w, v := range row(liveIn, succ) {
					out[w] |= v
				}
			}
			in, g, k := row(liveIn, b), row(gen, b), row(kill, b)
			for w := range out {
				if v := g[w] | out[w]&^k[w]; v != in[w] {
					in[w] = v
					changed = true
				}
			}
		}
	}

	// Live intervals, as [lo, hi] hulls of program points.
	lo, hi := resize(s.lo, nr), resize(s.hi, nr)
	s.lo, s.hi = lo, hi
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
		touchAll(row(liveIn, b), 2*blk.start)
		touchAll(row(liveOut, b), 2*blk.end-1)
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
	newReg := resize(s.newReg, nr)
	s.newReg = newReg
	busy := s.busy[:0]
	for r := 0; r < fn.NArgs; r++ {
		// Even an unread parameter holds its argument at point 0, so no
		// register live at entry may share it.
		newReg[r] = obj.Reg(r)
		busy = append(busy, max(hi[r], 0))
	}
	// The intervals in (start, old register) order: a counting sort on
	// start, which keeps register order among equal starts.
	starts := resize(s.starts, 2*len(code)+1)
	clear(starts)
	count := 0
	for r := fn.NArgs; r < nr; r++ {
		if hi[r] >= 0 {
			starts[lo[r]+1]++
			count++
		}
	}
	for p := 1; p < len(starts); p++ {
		starts[p] += starts[p-1]
	}
	order := resize(s.order, count)
	for r := fn.NArgs; r < nr; r++ {
		if hi[r] >= 0 {
			order[starts[lo[r]]] = r
			starts[lo[r]]++
		}
	}
	s.starts, s.order = starts, order
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
	s.busy = busy

	// Argument lists may be shared with other instructions: the
	// function's calls get one array of their own to renumber in.
	nargs := 0
	for i := range code {
		nargs += len(code[i].Args)
	}
	args := make([]obj.Reg, 0, nargs)
	for i := range code {
		in := &code[i]
		if len(in.Args) > 0 {
			from := len(args)
			args = append(args, in.Args...)
			in.Args = args[from:len(args):len(args)]
		} else {
			in.Args = nil
		}
		operands(in, func(r *obj.Reg, _ bool) { *r = newReg[*r] })
	}
	fn.NRegs = len(busy)
}
