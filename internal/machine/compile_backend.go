package machine

// This file is the machine's second execution engine. Each function of
// the loaded Image is translated, once, into basic blocks of
// pre-decoded micro-ops, and runCompiled executes them under one
// switch. The per-instruction interpreter overhead (opcode decode, pc
// bounds check, fetch model, step/fuel checks) is replaced by one bulk
// check per straight-line segment — itself a micro-op, uSeg, at the
// segment's head — and no Go call is made for an operation that needs
// none.
//
// What runs where. Compiled code is plain data: every operation is a
// micro-op kind, every block end a terminator kind, and runCompiled's
// one switch runs them all. No compiled function holds a Go func value.
//
//   - Micro-ops: const (also the address of a global or a string, both
//     load-time constants), mov, "mov; mov" and "mov; const"; the 14 ALU
//     tokens that cannot trap, register-register and with a const B
//     operand ("const k, imm; bin d, a, k"); every other binary or unary
//     operation, evaluated by obj.EvalBin or obj.EvalUn, the
//     interpreter's own functions; the address of a local; load, store,
//     global address + load, "add; load" and "add; mov"; direct calls,
//     which read their dispatch-cache slot inline and enter the callee's
//     frame straight away on a hit, and indirect calls; an operation that
//     can only trap (an unresolved symbol, a bad string index, a bad
//     opcode), which raises a copy of its entry in the function's trap
//     table; and the strided accumulate run (os_work), whose decoded
//     rounds are a stridedRun in the function's run table.
//   - Terminators: jump and fall-through (no work at all), branch on a
//     register, compare-and-branch register-register and its "const;
//     cmp; branch" immediate form, return with or without a value, and
//     the trap of a pc out of range. A jump or branch target outside the
//     function, and a fall-through off its end, go to a trap block after
//     the function's blocks, which counts nothing, as the interpreter
//     counts nothing there.
//
// The switch is there because Go's register ABI keeps no register
// across a call: a call per operation spills and reloads the loop's
// state (m, regs, fp, the block and the op index), which costs more
// than most operations do. For the same reason a block's segments are
// one op array rather than a loop over segments, so that the loop's
// state fits in registers.
//
// The compiled path preserves the interpreter's full runtime contract:
//
//   - Executed is exact at every observable point. Straight-line
//     segments end at call instructions, so a callee never sees
//     pre-counted instructions that follow the call; a trapping op rolls
//     the pre-count back, through its block's done table, to the
//     instructions that actually ran; and when a step/fuel limit could
//     fire inside a segment, the segment is not bulk-executed at all —
//     the frame falls back to the interpreter loop (execLoop with
//     model=false), which traps at the exact instruction the reference
//     backend would.
//   - Traps carry the same Kind, message, Func and PC, so unit
//     attribution (Trap.Unit via SymbolOwner) is unchanged.
//   - After every op the frame's registers equal the interpreter's, with
//     no liveness assumption, so any register sharing the compiler's
//     renumbering produces is safe. Fused ops perform the sequential
//     writes of the instructions they replace, except the strided
//     accumulate run, which keeps base and sum in host locals and then
//     writes each register the run writes with its last writer's value
//     (see fuseIndexedRunStrided).
//   - A strided run with contiguous offsets, as os_work's, checks its
//     address window once: when the whole window lies in mapped memory
//     one slice loop sums it, four words at a time into independent
//     sums, without per-round checks. Any other run
//     takes the per-round loop, so a trapping round's PC, Executed and
//     Cycles stay exact.
//   - PreCall/PostCall/PreRun hooks, Fuel, StepLimit, Interpose/Unpose,
//     Snapshot/Restore and dynamic load/unload all behave identically.
//     Call targets are resolved through a per-machine dispatch cache
//     whose entries are versioned by M.dispVersion; any operation that
//     can change the name→code mapping bumps the version, so a cached
//     target is never stale — an interposition takes effect at the very
//     next call, even within a running frame.
//   - Both engines enter frames through one prologue (M.frame), so the
//     checks, trap messages and arena discipline are shared, each
//     argument is copied once, from the caller's registers into the
//     callee's, and the hot call path stays allocation-free. Each frame
//     holds the callee's symbol record, which a compiled function
//     carries and the interpreter's dispatch has just looked up, so the
//     PostCall hook reads the dense index (CallInfo.Index) and the
//     interpreter the text offset without a second lookup.
//
// The one deliberate difference is the fetch model: compiled code does
// not simulate the instruction cache, so Stalls and ICacheRefs/ICacheMiss
// stay zero and, exactly,
//
//	Cycles(compiled) == Cycles(interp) − Stalls(interp).
//
// The backend-differential suite (backend_differential_test.go at the
// repo root, FuzzBackendEquivalence and FuzzCompiledCode here) holds
// both backends to these invariants on every example, kernel, fuzzed
// lifecycle sequence and fuzzed instruction mix, and TestCompiledKinds
// runs every micro-op and terminator kind.

import (
	"fmt"
	"slices"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// Backend selects the machine's execution engine.
type Backend int

const (
	// BackendInterp is the reference switch-dispatch interpreter with
	// the complete cost model, including instruction-fetch stalls.
	BackendInterp Backend = iota
	// BackendCompiled runs pre-decoded compiled code: identical program
	// semantics, outputs, traps and instruction counts, several times
	// faster, with cycle accounting that excludes the I-cache model.
	BackendCompiled
)

// String names the backend the way the -backend flag spells it.
func (b Backend) String() string {
	if b == BackendCompiled {
		return "compiled"
	}
	return "interp"
}

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "interp", "interpreter":
		return BackendInterp, nil
	case "compiled":
		return BackendCompiled, nil
	}
	return 0, fmt.Errorf("machine: unknown backend %q (want interp or compiled)", s)
}

// SetBackend switches the execution engine. Switch between runs, not
// from inside simulated code: a frame started on one backend finishes
// on it.
func (m *M) SetBackend(b Backend) { m.backend = b }

// Backend reports the machine's execution engine.
func (m *M) Backend() Backend { return m.backend }

// uopKind is what a micro-op does; runCompiled's switch has one arm
// per kind.
type uopKind uint8

const (
	uSeg        uopKind = iota // a segment's bulk step/fuel check and count: imm instructions from pc
	uConst                     // d = imm
	uMov                       // d = a
	uMovMov                    // d = a; b = c
	uMovConst                  // d = a; b = imm
	uAddrLocal                 // d = fp + imm
	uLoad                      // d = Mem[a]
	uStore                     // Mem[a] = b
	uGlobalLoad                // a = imm; d = Mem[imm]
	uAddLoad                   // d = a + b; e = Mem[c]
	uAddMov                    // d = a + b; c = e
	uCall                      // d = the direct call calls[imm]
	uCallInd                   // d = the indirect call calls[imm] to the address in a
	uBin                       // d = a op b by obj.EvalBin, op the token imm: divide, modulo, unknown tokens
	uUn                        // d = op a by obj.EvalUn, op the token imm
	uTrap                      // raise traps[imm]
	uRun                       // the strided accumulate run runs[imm]

	// d = a op b, for the tokens of pureBinToks in order.
	uAdd
	uSub
	uMul
	uShl
	uShr
	uAnd
	uOr
	uXor
	uLt
	uGt
	uLe
	uGe
	uEq
	uNe

	// c = imm; d = a op imm: the same tokens with a const B operand.
	uAddI
	uSubI
	uMulI
	uShlI
	uShrI
	uAndI
	uOrI
	uXorI
	uLtI
	uGtI
	uLeI
	uGeI
	uEqI
	uNeI

	// numUopKinds must stay last: TestCompiledKinds walks [0, numUopKinds).
	numUopKinds
)

// pureBinToks lists the ALU tokens that cannot trap, in the order of
// the kinds uAdd…uNe and uAddI…uNeI.
var pureBinToks = [...]cmini.Tok{cmini.PLUS, cmini.MINUS, cmini.STAR, cmini.SHL, cmini.SHR,
	cmini.AMP, cmini.PIPE, cmini.CARET, cmini.LT, cmini.GT, cmini.LE, cmini.GE, cmini.EQ, cmini.NE}

// binUop returns the register-register micro-op kind of a binary token
// that cannot trap; ok is false for divide, modulo and unknown tokens.
func binUop(tok cmini.Tok) (k uopKind, ok bool) {
	for i, t := range pureBinToks {
		if t == tok {
			return uAdd + uopKind(i), true
		}
	}
	return 0, false
}

// uop is one pre-decoded micro-op: its kind, up to five registers (what
// each one means is the kind's), an immediate, and the pc a trap in it
// reports.
type uop struct {
	kind          uopKind
	d, a, b, c, e obj.Reg
	pc            int32
	imm           int64
}

// termKind is how a block ends.
type termKind uint8

const (
	termJump   termKind = iota // to then (also a fall-through)
	termBranch                 // to then if x != 0, else to els
	// cd = x op y; branch on cd, for the tokens of cmpToks in order.
	termLt
	termGt
	termLe
	termGe
	termEq
	termNe
	// k = imm; cd = x op imm; branch on cd: "const; cmp; branch".
	termLtI
	termGtI
	termLeI
	termGeI
	termEqI
	termNeI
	termRet    // return 0
	termRetVal // return x
	termTrap   // raise traps[imm]: a trap block, where control left the function

	// numTermKinds must stay last: TestCompiledKinds walks [0, numTermKinds).
	numTermKinds
)

// cmpToks lists the comparison tokens in the order of the kinds
// termLt…termNe and termLtI…termNeI.
var cmpToks = [...]cmini.Tok{cmini.LT, cmini.GT, cmini.LE, cmini.GE, cmini.EQ, cmini.NE}

// cmpTerm returns the register-register compare-and-branch kind of a
// comparison token; ok is false for any other token.
func cmpTerm(tok cmini.Tok) (k termKind, ok bool) {
	for i, t := range cmpToks {
		if t == tok {
			return termLt + termKind(i), true
		}
	}
	return 0, false
}

// cblock is one basic block: its micro-ops and its terminator, whose
// kind says which of the operands below it reads.
//
// The ops are segments, each a uSeg followed by the micro-ops of a run
// of straight-line instructions, whose step/fuel accounting the uSeg
// does in bulk. A segment never extends past a call instruction, so
// Executed is exact whenever another frame (or a hook, or a builtin)
// can observe it; the last segment counts the terminator.
type cblock struct {
	ops []uop
	// done[i] is the number of its segment's instructions still
	// pre-counted but not run once ops[i] completes; a trap in ops[i]
	// rolls them back so the counters match the interpreter's trap point.
	done []int64
	term termKind
	// The branch, compared or returned register x, the other compared
	// register y, the comparison's result register cd, and the const's
	// register k and value imm of the immediate form; termTrap's trap
	// is traps[imm].
	x, y, cd, k obj.Reg
	imm         int64
	then, els   int32 // successor blocks; a jump goes to then
}

// ccall is a call site: its dispatch-cache slot, the symbol a direct
// call names and the caller's argument registers.
type ccall struct {
	site int
	sym  string
	args []obj.Reg
}

// cfunc is one compiled function.
type cfunc struct {
	sym     *symbol // the function's record: code, index, text offset
	blocks  []cblock
	calls   []ccall      // by uCall's and uCallInd's imm
	runs    []stridedRun // by uRun's imm
	traps   []Trap       // by uTrap's and termTrap's imm
	siteEnd int          // one past the highest dispatch-cache slot the code uses
}

// addTrap adds the trap of kind and msg at pc to cf's trap table and
// returns its index.
func (cf *cfunc) addTrap(kind TrapKind, msg string, pc int) int64 {
	cf.traps = append(cf.traps, Trap{Kind: kind, Msg: msg, Func: cf.sym.fn.Name, PC: pc})
	return int64(len(cf.traps) - 1)
}

// trap returns a copy of traps[i]: each occurrence gets its own,
// because callers annotate traps (Run fills in Unit) and compiled code
// is shared across machines.
func (cf *cfunc) trap(i int64) error {
	t := cf.traps[i]
	return &t
}

// imageProg is the once-compiled static program, shared read-only by
// every machine on the image.
type imageProg struct {
	funcs  []*cfunc // by static function index
	nsites int
}

// siteKind classifies what a dispatch-cache slot resolved to.
type siteKind uint8

const (
	siteUndef siteKind = iota
	siteFunc
	siteBuiltin
)

// callSite is one slot of the per-machine dispatch cache. Direct-call
// slots cache the interpose-resolved target for their (fixed) symbol;
// indirect-call slots are a monomorphic inline cache keyed by the last
// target address. Entries are valid only while version == dispVersion.
type callSite struct {
	version  uint64
	kind     siteKind
	cf       *cfunc
	b        Builtin
	lastAddr int64
}

// prog returns the image's compiled static program, building it on
// first use.
func (img *Image) prog() *imageProg {
	img.compileOnce.Do(func() {
		p := &imageProg{funcs: make([]*cfunc, len(img.funcs))}
		next := 0
		for i, s := range img.funcs { // text order: deterministic slot numbering
			p.funcs[i] = compileFunc(s, nil, img, &next)
		}
		p.nsites = next
		img.compiled = p
	})
	return img.compiled
}

// compiledFor returns the compiled form of the function s: the
// image-wide one for static functions, the one its record holds —
// built on first use — for a dynamically loaded function. Dynamic
// compilations bake in symbol addresses, which is sound because a live
// module's addresses never move — loads validate resolution, unload is
// refused while referenced, and the compiled form goes with its record
// at unload, restore and reset.
func (m *M) compiledFor(s *symbol) *cfunc {
	p := m.Img.prog()
	if m.nextSite < p.nsites {
		m.nextSite = p.nsites
	}
	if s.mod == nil {
		return p.funcs[s.index]
	}
	if s.cf == nil {
		s.cf = compileFunc(s, m, m.Img, &m.nextSite)
	}
	return s.cf
}

// growSites extends the dispatch cache to hold at least n slots. Slots
// start at version 0, which dispVersion (always ≥ 1) never matches, so
// new slots are born invalid.
func (m *M) growSites(n int) {
	ns := make([]callSite, n+16)
	copy(ns, m.sites)
	m.sites = ns
}

// runCompiled drives a compiled function body: per segment, one bulk
// step/fuel check and one bulk counter update, then the micro-ops; per
// block, the terminator. When a segment could cross a limit, the rest
// of the frame runs on the exact interpreter loop instead (nested calls
// made from there still dispatch compiled).
func (m *M) runCompiled(cf *cfunc, regs []int64, fp int64) (int64, error) {
	if cf.siteEnd > len(m.sites) {
		m.growSites(cf.siteEnd)
	}
	bi := int32(0)
	for {
		b := &cf.blocks[bi]
		ops := b.ops
		for oi := range ops {
			u := &ops[oi]
			switch u.kind {
			case uSeg:
				if m.Executed+u.imm > m.budgetEnd {
					// A limit fires somewhere in this segment: let the
					// interpreter find the exact instruction.
					return m.execLoop(cf.sym, regs, fp, int(u.pc), false)
				}
				m.Executed += u.imm
				m.Cycles += u.imm * m.Costs.Instr
			case uConst:
				regs[u.d] = u.imm
			case uMov:
				regs[u.d] = regs[u.a]
			case uMovMov:
				regs[u.d] = regs[u.a]
				regs[u.b] = regs[u.c]
			case uMovConst:
				regs[u.d] = regs[u.a]
				regs[u.b] = u.imm
			case uAddrLocal:
				regs[u.d] = fp + u.imm
			case uLoad:
				addr := regs[u.a]
				if addr < nullGuard || addr >= int64(len(m.Mem)) {
					return m.unwind(b, oi, memTrap("load from", addr, cf, u.pc))
				}
				regs[u.d] = m.Mem[addr]
			case uStore:
				addr := regs[u.a]
				if addr < nullGuard || addr >= int64(len(m.Mem)) {
					return m.unwind(b, oi, memTrap("store to", addr, cf, u.pc))
				}
				m.Mem[addr] = regs[u.b]
			case uGlobalLoad:
				regs[u.a] = u.imm
				if u.imm < nullGuard || u.imm >= int64(len(m.Mem)) {
					return m.unwind(b, oi, memTrap("load from", u.imm, cf, u.pc))
				}
				regs[u.d] = m.Mem[u.imm]
			case uAddLoad:
				regs[u.d] = regs[u.a] + regs[u.b]
				addr := regs[u.c]
				if addr < nullGuard || addr >= int64(len(m.Mem)) {
					return m.unwind(b, oi, memTrap("load from", addr, cf, u.pc))
				}
				regs[u.e] = m.Mem[addr]
			case uAddMov:
				regs[u.d] = regs[u.a] + regs[u.b]
				regs[u.c] = regs[u.e]
			case uCall:
				// A call ends its segment, so nothing pre-counted
				// follows it and a trap needs no unwinding.
				c := &cf.calls[u.imm]
				var v int64
				var err error
				if st := &m.sites[c.site]; st.version == m.dispVersion && st.kind == siteFunc {
					m.Calls++
					m.Cycles += m.Costs.CallBase + m.Costs.CallPerArg*int64(len(c.args))
					v, err = m.invoke(st.cf.sym, st.cf, regs, c.args)
				} else {
					v, err = m.compiledDispatch(c.site, c.sym, regs, c.args, cf.sym.fn.Name, int(u.pc))
				}
				if err != nil {
					return 0, err
				}
				regs[u.d] = v
			case uCallInd:
				c := &cf.calls[u.imm]
				v, err := m.compiledCallInd(c.site, regs, u.a, c.args, cf.sym.fn.Name, int(u.pc))
				if err != nil {
					return 0, err
				}
				regs[u.d] = v
			case uBin:
				v, err := obj.EvalBin(cmini.Tok(u.imm), regs[u.a], regs[u.b])
				if err != nil {
					return m.unwind(b, oi, &Trap{Msg: err.Error(), Func: cf.sym.fn.Name, PC: int(u.pc)})
				}
				regs[u.d] = v
			case uUn:
				v, err := obj.EvalUn(cmini.Tok(u.imm), regs[u.a])
				if err != nil {
					return m.unwind(b, oi, &Trap{Msg: err.Error(), Func: cf.sym.fn.Name, PC: int(u.pc)})
				}
				regs[u.d] = v
			case uTrap:
				return m.unwind(b, oi, cf.trap(u.imm))
			case uRun:
				if err := cf.runs[u.imm].run(m, regs, cf.sym.fn.Name); err != nil {
					return m.unwind(b, oi, err)
				}

			case uAdd:
				regs[u.d] = regs[u.a] + regs[u.b]
			case uSub:
				regs[u.d] = regs[u.a] - regs[u.b]
			case uMul:
				regs[u.d] = regs[u.a] * regs[u.b]
			case uShl:
				regs[u.d] = regs[u.a] << (uint64(regs[u.b]) & 63)
			case uShr:
				regs[u.d] = int64(uint64(regs[u.a]) >> (uint64(regs[u.b]) & 63))
			case uAnd:
				regs[u.d] = regs[u.a] & regs[u.b]
			case uOr:
				regs[u.d] = regs[u.a] | regs[u.b]
			case uXor:
				regs[u.d] = regs[u.a] ^ regs[u.b]
			case uLt:
				regs[u.d] = b2i(regs[u.a] < regs[u.b])
			case uGt:
				regs[u.d] = b2i(regs[u.a] > regs[u.b])
			case uLe:
				regs[u.d] = b2i(regs[u.a] <= regs[u.b])
			case uGe:
				regs[u.d] = b2i(regs[u.a] >= regs[u.b])
			case uEq:
				regs[u.d] = b2i(regs[u.a] == regs[u.b])
			case uNe:
				regs[u.d] = b2i(regs[u.a] != regs[u.b])

			// The constant is written first, so an A operand that
			// is the constant's register reads it, as in sequence.
			case uAddI:
				regs[u.c] = u.imm
				regs[u.d] = regs[u.a] + u.imm
			case uSubI:
				regs[u.c] = u.imm
				regs[u.d] = regs[u.a] - u.imm
			case uMulI:
				regs[u.c] = u.imm
				regs[u.d] = regs[u.a] * u.imm
			case uShlI:
				regs[u.c] = u.imm
				regs[u.d] = regs[u.a] << (uint64(u.imm) & 63)
			case uShrI:
				regs[u.c] = u.imm
				regs[u.d] = int64(uint64(regs[u.a]) >> (uint64(u.imm) & 63))
			case uAndI:
				regs[u.c] = u.imm
				regs[u.d] = regs[u.a] & u.imm
			case uOrI:
				regs[u.c] = u.imm
				regs[u.d] = regs[u.a] | u.imm
			case uXorI:
				regs[u.c] = u.imm
				regs[u.d] = regs[u.a] ^ u.imm
			case uLtI:
				regs[u.c] = u.imm
				regs[u.d] = b2i(regs[u.a] < u.imm)
			case uGtI:
				regs[u.c] = u.imm
				regs[u.d] = b2i(regs[u.a] > u.imm)
			case uLeI:
				regs[u.c] = u.imm
				regs[u.d] = b2i(regs[u.a] <= u.imm)
			case uGeI:
				regs[u.c] = u.imm
				regs[u.d] = b2i(regs[u.a] >= u.imm)
			case uEqI:
				regs[u.c] = u.imm
				regs[u.d] = b2i(regs[u.a] == u.imm)
			case uNeI:
				regs[u.c] = u.imm
				regs[u.d] = b2i(regs[u.a] != u.imm)
			}
		}

		// The terminator. A comparison reads its operands before it
		// writes its result, as the instruction does.
		var taken bool
		switch b.term {
		case termJump:
			bi = b.then
			continue
		case termBranch:
			taken = regs[b.x] != 0
		case termLt:
			taken = regs[b.x] < regs[b.y]
			regs[b.cd] = b2i(taken)
		case termGt:
			taken = regs[b.x] > regs[b.y]
			regs[b.cd] = b2i(taken)
		case termLe:
			taken = regs[b.x] <= regs[b.y]
			regs[b.cd] = b2i(taken)
		case termGe:
			taken = regs[b.x] >= regs[b.y]
			regs[b.cd] = b2i(taken)
		case termEq:
			taken = regs[b.x] == regs[b.y]
			regs[b.cd] = b2i(taken)
		case termNe:
			taken = regs[b.x] != regs[b.y]
			regs[b.cd] = b2i(taken)
		case termLtI:
			regs[b.k] = b.imm
			taken = regs[b.x] < b.imm
			regs[b.cd] = b2i(taken)
		case termGtI:
			regs[b.k] = b.imm
			taken = regs[b.x] > b.imm
			regs[b.cd] = b2i(taken)
		case termLeI:
			regs[b.k] = b.imm
			taken = regs[b.x] <= b.imm
			regs[b.cd] = b2i(taken)
		case termGeI:
			regs[b.k] = b.imm
			taken = regs[b.x] >= b.imm
			regs[b.cd] = b2i(taken)
		case termEqI:
			regs[b.k] = b.imm
			taken = regs[b.x] == b.imm
			regs[b.cd] = b2i(taken)
		case termNeI:
			regs[b.k] = b.imm
			taken = regs[b.x] != b.imm
			regs[b.cd] = b2i(taken)
		case termRet:
			return 0, nil
		case termRetVal:
			return regs[b.x], nil
		default: // termTrap
			return 0, cf.trap(b.imm)
		}
		if taken {
			bi = b.then
		} else {
			bi = b.els
		}
	}
}

// unwind keeps only the instructions that ran before op oi of block b
// trapped with err, and returns err.
func (m *M) unwind(b *cblock, oi int, err error) (int64, error) {
	drop := b.done[oi]
	m.Executed -= drop
	m.Cycles -= drop * m.Costs.Instr
	return 0, err
}

// memTrap is the trap of a load or store (verb "load from" or "store
// to") at an invalid address, reported at pc of cf. The Trap is
// allocated per occurrence: callers annotate traps (Run fills in Unit),
// and compiled code is shared across machines.
func memTrap(verb string, addr int64, cf *cfunc, pc int32) error {
	return &Trap{Kind: TrapBadAddress, Msg: fmt.Sprintf("%s invalid address %d", verb, addr),
		Func: cf.sym.fn.Name, PC: int(pc)}
}

// compiledDispatch performs a direct call from compiled code through
// the dispatch cache, mirroring the interpreter's dispatch: interpose
// resolution, definition → builtin lookup order, identical cycle
// charges and counters, identical trap.
func (m *M) compiledDispatch(site int, sym string, regs []int64, argRegs []obj.Reg, caller string, pc int) (int64, error) {
	if m.sites[site].version != m.dispVersion {
		m.resolveSite(site, sym)
	}
	c := &m.sites[site]
	switch c.kind {
	case siteFunc:
		cf := c.cf
		m.Calls++
		m.Cycles += m.Costs.CallBase + m.Costs.CallPerArg*int64(len(argRegs))
		return m.invoke(cf.sym, cf, regs, argRegs)
	case siteBuiltin:
		m.BuiltinCnt++
		m.Cycles += m.Costs.Builtin
		return m.callBuiltin(c.b, regs, argRegs, caller, pc)
	default:
		return 0, &Trap{Kind: TrapUndefinedCall, Msg: "call to undefined function " + m.interposed(sym), Func: caller, PC: pc}
	}
}

// resolveSite fills one direct-call dispatch slot for sym, following
// the interpreter's resolution order. It writes through the index, not
// a held pointer: compiledFor can grow m.sites.
func (m *M) resolveSite(site int, sym string) {
	final := m.interposed(sym)
	c := callSite{version: m.dispVersion}
	if s := m.lookup(final); s != nil && s.fn != nil {
		c.kind, c.cf = siteFunc, m.compiledFor(s)
	} else if b, ok := m.Builtins[final]; ok {
		c.kind, c.b = siteBuiltin, b
	} else {
		c.kind = siteUndef
	}
	c.version = m.dispVersion // compiledFor cannot bump, but be explicit
	m.sites[site] = c
}

// compiledCallInd performs an indirect call from compiled code, with a
// monomorphic inline cache on the last target address. Interposition
// deliberately does not apply (same as the interpreter).
func (m *M) compiledCallInd(site int, regs []int64, aReg obj.Reg, argRegs []obj.Reg, caller string, pc int) (int64, error) {
	target := regs[aReg]
	c := &m.sites[site]
	cf := c.cf
	if c.version != m.dispVersion || c.lastAddr != target || cf == nil {
		s := m.lookupAddr(target)
		if s == nil {
			return 0, &Trap{Kind: TrapUnresolvedSymbol,
				Msg: fmt.Sprintf("indirect call to non-function address %#x", target), Func: caller, PC: pc}
		}
		cf = m.compiledFor(s)
		c = &m.sites[site] // compiledFor may have grown the cache
		c.version, c.kind, c.cf, c.lastAddr = m.dispVersion, siteFunc, cf, target
	}
	m.IndCalls++
	m.Cycles += m.Costs.CallBase + m.Costs.Indirect + m.Costs.CallPerArg*int64(len(argRegs))
	return m.invoke(cf.sym, cf, regs, argRegs)
}

// compileFunc translates the function s. m is nil for the static image
// pass (symbols resolve against the image alone); for dynamic functions
// it is the owning machine, whose namespace resolves the module's
// references. next allocates dispatch-cache slots.
func compileFunc(s *symbol, m *M, img *Image, next *int) *cfunc {
	fn := s.fn
	code := fn.Code
	n := len(code)
	cf := &cfunc{sym: s}
	if n == 0 {
		// The interpreter traps "pc out of range" before counting
		// anything; a trap block as the entry matches.
		cf.blocks = []cblock{{term: termTrap, imm: cf.addTrap(TrapGeneric, "pc out of range", 0)}}
		cf.siteEnd = *next
		return cf
	}

	// Block leaders: entry, branch/jump targets, and fall-through
	// successors of every control instruction.
	isLeader := make([]bool, n)
	isLeader[0] = true
	mark := func(t int) {
		if t >= 0 && t < n {
			isLeader[t] = true
		}
	}
	for pc := 0; pc < n; pc++ {
		switch code[pc].Op {
		case obj.OpJump:
			mark(code[pc].Targets[0])
			mark(pc + 1)
		case obj.OpBranch:
			mark(code[pc].Targets[0])
			mark(code[pc].Targets[1])
			mark(pc + 1)
		case obj.OpRet:
			mark(pc + 1)
		}
	}
	blockIdx := make([]int32, n)
	nb := int32(0)
	for pc := 0; pc < n; pc++ {
		if isLeader[pc] {
			nb++
		}
		blockIdx[pc] = nb - 1
	}
	// target is the block control enters at pc t: t's own, or for a t
	// outside the function a trap block after the function's blocks.
	var outside []int
	target := func(t int) int32 {
		if t >= 0 && t < n {
			return blockIdx[t]
		}
		outside = append(outside, t)
		return nb + int32(len(outside)-1)
	}

	blocks := make([]cblock, 0, nb)
	pc := 0
	for pc < n {
		end := pc
		for {
			op := code[end].Op
			end++
			if op == obj.OpJump || op == obj.OpBranch || op == obj.OpRet {
				break
			}
			if end >= n || isLeader[end] {
				break
			}
		}
		blocks = append(blocks, compileBlock(cf, pc, end, target, m, img, next))
		pc = end
	}
	// The interpreter traps "pc out of range" on reaching such a pc,
	// before counting anything.
	for _, t := range outside {
		blocks = append(blocks, cblock{term: termTrap, imm: cf.addTrap(TrapGeneric, "pc out of range", t)})
	}
	cf.blocks = blocks
	cf.siteEnd = *next
	return cf
}

// compileBlock translates code[start:end) of cf's function — one basic
// block — into segments of micro-ops plus a terminator, adding cf's
// call sites, runs and traps as it meets them. target maps a pc to the
// block control enters there.
func compileBlock(cf *cfunc, start, end int, target func(int) int32, m *M, img *Image, next *int) cblock {
	code := cf.sym.fn.Code
	var b cblock
	// The open segment: the index of its uSeg and the instructions it
	// holds so far.
	var segAt int
	var segN int64
	openSeg := func(pc int) {
		segAt, segN = len(b.ops), 0
		b.ops = append(b.ops, uop{kind: uSeg, pc: int32(pc)})
		b.done = append(b.done, 0)
	}
	emit := func(u uop, width int64) {
		segN += width
		b.ops = append(b.ops, u)
		b.done = append(b.done, segN)
	}
	trap := func(kind TrapKind, msg string, pc int) {
		emit(uop{kind: uTrap, imm: cf.addTrap(kind, msg, pc)}, 1)
	}
	// closeSeg gives the open segment's uSeg its count and turns done
	// from the instructions counted once each op completes into those
	// still to run; a segment that counts nothing is dropped.
	closeSeg := func() {
		if segN == 0 {
			b.ops, b.done = b.ops[:segAt], b.done[:segAt]
			return
		}
		b.ops[segAt].imm = segN
		for i := segAt; i < len(b.done); i++ {
			b.done[i] = segN - b.done[i]
		}
	}
	// branchTo makes the terminator a conditional branch of kind k to
	// the targets of the branch instruction br.
	branchTo := func(k termKind, br *obj.Instr) {
		b.term, b.then, b.els = k, target(br.Targets[0]), target(br.Targets[1])
	}

	openSeg(start)
	pc := start
	for pc < end {
		in := &code[pc]
		switch in.Op {
		case obj.OpJump:
			segN++ // the jump executes (and is counted) before control moves
			b.term, b.then = termJump, target(in.Targets[0])
			pc++

		case obj.OpBranch:
			segN++
			b.x = in.A
			branchTo(termBranch, in)
			pc++

		case obj.OpRet:
			segN++
			b.term = termRet
			if in.HasVal {
				b.term, b.x = termRetVal, in.A
			}
			pc++

		case obj.OpBin:
			tok := cmini.Tok(in.Tok)
			// Compare-and-branch: the comparison is the last body
			// instruction, the branch the terminator, branching on the
			// comparison's (still architecturally written) result.
			if k, ok := cmpTerm(tok); ok && pc+2 == end && code[pc+1].Op == obj.OpBranch && code[pc+1].A == in.Dst {
				branchTo(k, &code[pc+1])
				b.x, b.y, b.cd = in.A, in.B, in.Dst
				segN += 2
				pc += 2
				continue
			}
			// "add; load" (address arithmetic feeding a dereference) and
			// "add; mov" (a sum copied into a variable's register).
			if tok == cmini.PLUS && pc+1 < end {
				switch in2 := &code[pc+1]; in2.Op {
				case obj.OpLoad:
					emit(uop{kind: uAddLoad, d: in.Dst, a: in.A, b: in.B, c: in2.A, e: in2.Dst, pc: int32(pc + 1)}, 2)
					pc += 2
					continue
				case obj.OpMov:
					emit(uop{kind: uAddMov, d: in.Dst, a: in.A, b: in.B, c: in2.Dst, e: in2.A}, 2)
					pc += 2
					continue
				}
			}
			if k, ok := binUop(tok); ok {
				emit(uop{kind: k, d: in.Dst, a: in.A, b: in.B}, 1)
			} else {
				emit(uop{kind: uBin, d: in.Dst, a: in.A, b: in.B, imm: int64(tok), pc: int32(pc)}, 1)
			}
			pc++

		case obj.OpConst:
			if pc+1 < end && code[pc+1].Op == obj.OpBin && code[pc+1].B == in.Dst {
				cmp := &code[pc+1]
				// "const; cmp; branch": the whole block tail is the
				// terminator.
				if k, ok := cmpTerm(cmini.Tok(cmp.Tok)); ok && pc+3 == end &&
					code[pc+2].Op == obj.OpBranch && code[pc+2].A == cmp.Dst {
					branchTo(k+termLtI-termLt, &code[pc+2])
					b.k, b.imm, b.x, b.cd = in.Dst, in.Imm, cmp.A, cmp.Dst
					segN += 3
					pc += 3
					continue
				}
				// ALU-immediate: the const feeds the next op's B operand.
				// Divide and modulo stay unfused, so their trap counts
				// the const as the interpreter does.
				if k, ok := binUop(cmini.Tok(cmp.Tok)); ok {
					emit(uop{kind: k + uAddI - uAdd, c: in.Dst, imm: in.Imm, d: cmp.Dst, a: cmp.A}, 2)
					pc += 2
					continue
				}
			}
			emit(uop{kind: uConst, d: in.Dst, imm: in.Imm}, 1)
			pc++

		case obj.OpMov:
			if r, ok := fuseIndexedRun(code, pc, end); ok {
				emit(uop{kind: uRun, imm: int64(len(cf.runs))}, r.width())
				cf.runs = append(cf.runs, r)
				pc += int(r.width())
				continue
			}
			if pc+1 < end {
				switch in2 := &code[pc+1]; in2.Op {
				case obj.OpMov:
					emit(uop{kind: uMovMov, d: in.Dst, a: in.A, b: in2.Dst, c: in2.A}, 2)
					pc += 2
					continue
				case obj.OpConst:
					emit(uop{kind: uMovConst, d: in.Dst, a: in.A, b: in2.Dst, imm: in2.Imm}, 2)
					pc += 2
					continue
				}
			}
			emit(uop{kind: uMov, d: in.Dst, a: in.A}, 1)
			pc++

		case obj.OpUn:
			emit(uop{kind: uUn, d: in.Dst, a: in.A, imm: int64(in.Tok), pc: int32(pc)}, 1)
			pc++

		case obj.OpLoad:
			emit(uop{kind: uLoad, d: in.Dst, a: in.A, pc: int32(pc)}, 1)
			pc++

		case obj.OpStore:
			emit(uop{kind: uStore, a: in.A, b: in.B, pc: int32(pc)}, 1)
			pc++

		case obj.OpAddrLocal:
			emit(uop{kind: uAddrLocal, d: in.Dst, imm: in.Imm}, 1)
			pc++

		case obj.OpAddrGlobal:
			s := img.syms[in.Sym]
			if m != nil {
				s = m.lookup(in.Sym)
			}
			if s == nil {
				// Load/LoadDynamicAs validate every OpAddrGlobal, so this
				// op is unreachable in practice; keep the interpreter's
				// trap for safety.
				trap(TrapUnresolvedSymbol, "unresolved symbol "+in.Sym, pc)
				pc++
				continue
			}
			// Fused global load: the address is a load-time constant.
			if pc+1 < end && code[pc+1].Op == obj.OpLoad && code[pc+1].A == in.Dst {
				emit(uop{kind: uGlobalLoad, a: in.Dst, d: code[pc+1].Dst, imm: s.addr, pc: int32(pc + 1)}, 2)
				pc += 2
				continue
			}
			emit(uop{kind: uConst, d: in.Dst, imm: s.addr}, 1)
			pc++

		case obj.OpAddrString:
			if strs := img.layoutOf(cf.sym).strAddr; in.Imm >= 0 && in.Imm < int64(len(strs)) {
				emit(uop{kind: uConst, d: in.Dst, imm: strs[in.Imm]}, 1)
			} else {
				trap(TrapBadStringIndex, "bad string literal index", pc)
			}
			pc++

		case obj.OpCall, obj.OpCallInd:
			k := uCall
			if in.Op == obj.OpCallInd {
				k = uCallInd
			}
			emit(uop{kind: k, d: in.Dst, a: in.A, imm: int64(len(cf.calls)), pc: int32(pc)}, 1)
			cf.calls = append(cf.calls, ccall{site: *next, sym: in.Sym, args: in.Args})
			*next++
			closeSeg()
			openSeg(pc + 1)
			pc++

		default:
			trap(TrapGeneric, "bad opcode", pc)
			pc++
		}
	}

	if op := code[end-1].Op; op != obj.OpJump && op != obj.OpBranch && op != obj.OpRet {
		// Fell off the block: into the next leader, or off the end of
		// the function into a trap block.
		b.term, b.then = termJump, target(end)
	}
	closeSeg()
	return b
}

// ixRound is one decoded round of an unrolled indexed-accumulate run:
// mov; const; bin+; load; bin+; mov.
type ixRound struct {
	lmD, lmA, kd, bd, bA, bB, ld, lA, td, tA, tB, tmD, tmA obj.Reg
	imm                                                    int64
	lpc                                                    int
}

// fuseIndexedRun decodes consecutive identical-shape accumulate
// 6-grams — the body of a compiler-unrolled "for { acc += base[i] }"
// loop — and batches them into one stridedRun when
// fuseIndexedRunStrided accepts the run, so an unrolled loop of N
// array reads costs N loop iterations instead of N rounds of micro-ops.
// Otherwise it reports no fusion and the rounds compile op by op.
func fuseIndexedRun(code []obj.Instr, pc, end int) (stridedRun, bool) {
	matches := func(p int) bool {
		return p+5 < end &&
			code[p].Op == obj.OpMov &&
			code[p+1].Op == obj.OpConst &&
			code[p+2].Op == obj.OpBin && cmini.Tok(code[p+2].Tok) == cmini.PLUS &&
			code[p+3].Op == obj.OpLoad &&
			code[p+4].Op == obj.OpBin && cmini.Tok(code[p+4].Tok) == cmini.PLUS &&
			code[p+5].Op == obj.OpMov
	}
	var rs []ixRound
	for p := pc; matches(p); p += 6 {
		rs = append(rs, ixRound{
			lmD: code[p].Dst, lmA: code[p].A,
			kd: code[p+1].Dst, imm: code[p+1].Imm,
			bd: code[p+2].Dst, bA: code[p+2].A, bB: code[p+2].B,
			ld: code[p+3].Dst, lA: code[p+3].A, lpc: p + 3,
			td: code[p+4].Dst, tA: code[p+4].A, tB: code[p+4].B,
			tmD: code[p+5].Dst, tmA: code[p+5].A,
		})
	}
	if len(rs) < 2 {
		return stridedRun{}, false
	}
	return fuseIndexedRunStrided(rs)
}

// What a register written by a strided run holds once the run is over:
// the value of the last instruction in the run that wrote it.
const (
	ixBase = iota // a mov's copy of base
	ixImm         // a const's immediate
	ixAddr        // base + immediate
	ixWord        // the word loaded from base + immediate
	ixSum         // the final running sum
)

// ixWrite is one register write a fused strided run performs after its
// loop.
type ixWrite struct {
	reg  obj.Reg
	kind int
	imm  int64
}

// stridedRun is a fused run of "acc += Mem[base+imm]" rounds, one per
// entry of imms (see fuseIndexedRunStrided).
type stridedRun struct {
	base, acc  obj.Reg
	imms       []int64
	pc         int   // the first round's load; round i's is at pc + 6i
	lo, hi     int64 // the least and greatest offset
	contiguous bool  // the offsets are lo, lo+1, …, hi in some order
	writes     []ixWrite
}

// width is the number of instructions the run covers.
func (r *stridedRun) width() int64 { return int64(6 * len(r.imms)) }

// fuseIndexedRunStrided compiles fuseIndexedRun's rounds when every
// round implements exactly "acc += Mem[base+imm]": base and acc stay in
// host locals and the per-round register writes are skipped. After the
// loop the op writes every register the run writes with the value of
// that register's last writer in the run — the base copy, the
// immediate, the address, the reloaded word (no round stores), or the
// running sum — so the register file afterwards equals the unfused
// run's, whatever the rest of the function reads; no liveness is
// needed. It declines when a round's own dataflow is aliased (a
// non-final round overwrites base, a temporary overwrites acc before
// the sum, or the const overwrites the mov's copy), and when a sum
// register's last writer is not the final round, since only the final
// sum is kept.
//
// When the offsets are contiguous, as os_work's are, the rounds read
// each word of [base+lo, base+hi] once, so the op checks that window
// once per run: when base+lo ≥ nullGuard, base+hi < len(Mem) and
// base+lo ≤ base+hi (the last clause rules out a window whose end
// wrapped around int64), no round can trap and one slice loop sums the
// window. Otherwise the run goes round by round, checking each address
// as the interpreter does, so a trap fires at the same round with the
// same PC, Executed and Cycles.
func fuseIndexedRunStrided(rs []ixRound) (stridedRun, bool) {
	base, acc := rs[0].lmA, rs[0].tA
	if base == acc {
		return stridedRun{}, false
	}
	var writes []ixWrite
	at := map[obj.Reg]int{} // register -> its entry in writes
	write := func(reg obj.Reg, kind int, imm int64) {
		if i, ok := at[reg]; ok {
			writes[i] = ixWrite{reg, kind, imm}
			return
		}
		at[reg] = len(writes)
		writes = append(writes, ixWrite{reg, kind, imm})
	}
	final := len(rs) - 1
	for i := range rs {
		r := &rs[i]
		if r.lmA != base || r.tA != acc || r.tmD != acc || r.tmA != r.td ||
			r.bA != r.lmD || r.bB != r.kd || r.lA != r.bd || r.tB != r.ld ||
			r.kd == r.lmD {
			return stridedRun{}, false
		}
		for _, tmp := range [4]obj.Reg{r.lmD, r.kd, r.bd, r.ld} {
			if tmp == acc || (tmp == base && i < final) {
				return stridedRun{}, false
			}
		}
		if r.td == base && i < final {
			return stridedRun{}, false
		}
		write(r.lmD, ixBase, 0)
		write(r.kd, ixImm, r.imm)
		write(r.bd, ixAddr, r.imm)
		write(r.ld, ixWord, r.imm)
		write(r.td, ixSum, 0)
		write(acc, ixSum, 0)
	}
	for _, wr := range writes {
		// The final round writes its td and acc last; any other sum
		// register would need an intermediate sum the loop does not keep.
		if wr.kind == ixSum && wr.reg != acc && wr.reg != rs[final].td {
			return stridedRun{}, false
		}
	}
	run := stridedRun{base: base, acc: acc, writes: writes, imms: make([]int64, len(rs)), pc: rs[0].lpc}
	for i := range rs {
		run.imms[i] = rs[i].imm
	}
	sorted := slices.Clone(run.imms)
	slices.Sort(sorted)
	run.lo, run.hi = sorted[0], sorted[final]
	run.contiguous = true
	for i, imm := range sorted {
		run.contiguous = run.contiguous && imm == run.lo+int64(i)
	}
	return run, true
}

// run executes the strided run over the frame's registers, in function
// fname.
func (r *stridedRun) run(m *M, regs []int64, fname string) error {
	mem := m.Mem
	memLen := int64(len(mem))
	b := regs[r.base]
	a := regs[r.acc]
	if first, last := b+r.lo, b+r.hi; r.contiguous && first >= nullGuard && last < memLen && first <= last {
		// Four independent sums: two's-complement addition is
		// associative, so the total is the same.
		win := mem[first : last+1]
		var a0, a1, a2, a3 int64
		i := 0
		for ; i+4 <= len(win); i += 4 {
			a0 += win[i]
			a1 += win[i+1]
			a2 += win[i+2]
			a3 += win[i+3]
		}
		for ; i < len(win); i++ {
			a0 += win[i]
		}
		a += a0 + a1 + a2 + a3
	} else {
		for i, imm := range r.imms {
			addr := b + imm
			if addr < nullGuard || addr >= memLen {
				// The frame is dead after a trap — no later instruction
				// will read regs — so only the counters need fixing.
				adj := r.width() - (6*int64(i) + 4)
				m.Executed -= adj
				m.Cycles -= adj * m.Costs.Instr
				return &Trap{Kind: TrapBadAddress,
					Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: r.pc + 6*i}
			}
			a += mem[addr]
		}
	}
	for _, wr := range r.writes {
		switch wr.kind {
		case ixBase:
			regs[wr.reg] = b
		case ixImm:
			regs[wr.reg] = wr.imm
		case ixAddr:
			regs[wr.reg] = b + wr.imm
		case ixWord:
			regs[wr.reg] = mem[b+wr.imm]
		case ixSum:
			regs[wr.reg] = a
		}
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
