package compile

import (
	"sort"

	"knit/internal/obj"
)

// inlineFile inlines direct calls whose callees are defined in the same
// object file. Like gcc compiling a single translation unit, the inliner
// never sees beyond the file: calls to extern symbols (component imports)
// stay as calls. Knit's flattener exploits exactly this boundary — by
// merging many components' sources into one file, previously-extern calls
// become intra-file and inlinable.
func inlineFile(f *obj.File, inlineLimit, growthLimit int) {
	// Process functions callees-first (approximated by repeated rounds in
	// sorted name order) so inlining is deterministic; growth caps keep
	// recursion and code blowup bounded.
	names := make([]string, 0, len(f.Funcs))
	for name := range f.Funcs {
		names = append(names, name)
	}
	// Definition order: earlier functions finalize first, so a caller
	// sees its (earlier-defined) callees fully optimized.
	sort.Slice(names, func(i, j int) bool {
		a, b := f.Funcs[names[i]], f.Funcs[names[j]]
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		return a.Name < b.Name
	})
	for round := 0; round < 4; round++ {
		changed := false
		for _, name := range names {
			if inlineCalls(f, f.Funcs[name], inlineLimit, growthLimit) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// inlinable reports whether callee can be inlined at all.
func inlinable(callee *obj.Func, limit int) bool {
	if len(callee.Code) > limit {
		return false
	}
	for i := range callee.Code {
		// Direct recursion never inlines.
		if callee.Code[i].Op == obj.OpCall && callee.Code[i].Sym == callee.Name {
			return false
		}
	}
	return true
}

// inlineCalls rewrites fn, splicing in the bodies of inlinable callees.
// It reports whether anything changed.
func inlineCalls(f *obj.File, fn *obj.Func, inlineLimit, growthLimit int) bool {
	var sites []int
	for i := range fn.Code {
		in := &fn.Code[i]
		if in.Op != obj.OpCall || in.Sym == fn.Name {
			continue
		}
		callee, ok := f.Funcs[in.Sym]
		if !ok || callee == fn || !inlinable(callee, inlineLimit) {
			continue
		}
		// gcc-2.95 rule: only callees defined before the caller inline.
		if callee.Order >= fn.Order {
			continue
		}
		if len(in.Args) != callee.NArgs {
			continue // arity mismatch: leave the call; the machine traps
		}
		sites = append(sites, i)
	}
	if len(sites) == 0 {
		return false
	}
	siteSet := map[int]bool{}
	budget := growthLimit - len(fn.Code)
	size := len(fn.Code) // of the rewritten code
	for _, i := range sites {
		callee := f.Funcs[fn.Code[i].Sym]
		cost := len(callee.Code) + callee.NArgs
		if cost > budget {
			continue
		}
		budget -= cost
		siteSet[i] = true
		// The call becomes the argument moves and the body, in which a
		// return with a value is two instructions.
		size += cost - 1
		for ci := range callee.Code {
			if callee.Code[ci].Op == obj.OpRet && callee.Code[ci].HasVal {
				size++
			}
		}
	}
	if len(siteSet) == 0 {
		return false
	}

	// Rebuild the code with splices. newIndex maps old caller indexes to
	// new ones for target fixup (old index len(code) maps to new end).
	newIndex := make([]int, len(fn.Code)+1)
	out := make([]obj.Instr, 0, size)
	type retFix struct {
		at   int // index in out of the jump emitted for an inlined return
		site int // call site (old index); continuation = newIndex[site+1]
	}
	var retFixes []retFix
	for i := range fn.Code {
		newIndex[i] = len(out)
		in := fn.Code[i]
		if !siteSet[i] {
			out = append(out, in)
			continue
		}
		callee := f.Funcs[in.Sym]
		regBase := obj.Reg(fn.NRegs)
		fn.NRegs += callee.NRegs
		frameBase := fn.Frame
		fn.Frame += callee.Frame
		// Prologue: copy argument registers into the callee's parameter
		// registers (callee params are regs 0..NArgs-1, remapped).
		for a, argReg := range in.Args {
			out = append(out, obj.Instr{
				Op: obj.OpMov, Dst: regBase + obj.Reg(a), A: argReg, B: obj.NoReg,
			})
		}
		bodyStart := len(out)
		// A return with a value expands into two instructions (Mov then
		// Jump), so callee indexes shift; precompute the mapping from
		// callee index to out index before emitting.
		calleeNew := make([]int, len(callee.Code)+1)
		pos := bodyStart
		for ci := range callee.Code {
			calleeNew[ci] = pos
			if callee.Code[ci].Op == obj.OpRet && callee.Code[ci].HasVal {
				pos += 2
			} else {
				pos++
			}
		}
		calleeNew[len(callee.Code)] = pos
		for ci := range callee.Code {
			cin := callee.Code[ci]
			if cin.Args != nil {
				cin.Args = append([]obj.Reg(nil), cin.Args...)
			}
			operands(&cin, func(r *obj.Reg, _ bool) { *r += regBase })
			switch cin.Op {
			case obj.OpAddrLocal:
				cin.Imm += int64(frameBase)
			case obj.OpJump:
				cin.Targets[0] = calleeNew[cin.Targets[0]]
			case obj.OpBranch:
				cin.Targets[0] = calleeNew[cin.Targets[0]]
				cin.Targets[1] = calleeNew[cin.Targets[1]]
			case obj.OpRet:
				// Return becomes: move result into the call's Dst, then
				// jump to the continuation.
				if cin.HasVal {
					out = append(out, obj.Instr{
						Op: obj.OpMov, Dst: in.Dst, A: cin.A, B: obj.NoReg,
					})
				}
				out = append(out, obj.Instr{Op: obj.OpJump})
				retFixes = append(retFixes, retFix{at: len(out) - 1, site: i})
				continue
			}
			out = append(out, cin)
		}
	}
	newIndex[len(fn.Code)] = len(out)

	// Fix the caller's own jump targets, skipping instructions that were
	// spliced in (their targets were already final when emitted). An
	// instruction belongs to the caller iff its out-index is newIndex[k]
	// for the k-th surviving caller instruction; track via a second pass.
	isCaller := make([]bool, len(out))
	for i := range fn.Code {
		if !siteSet[i] {
			isCaller[newIndex[i]] = true
		}
	}
	for oi := range out {
		if !isCaller[oi] {
			continue
		}
		switch out[oi].Op {
		case obj.OpJump:
			out[oi].Targets[0] = newIndex[out[oi].Targets[0]]
		case obj.OpBranch:
			out[oi].Targets[0] = newIndex[out[oi].Targets[0]]
			out[oi].Targets[1] = newIndex[out[oi].Targets[1]]
		}
	}
	for _, rf := range retFixes {
		out[rf.at].Targets[0] = newIndex[rf.site+1]
	}
	fn.Code = out
	return true
}
