package machine

// This file is the machine's second execution engine: a closure
// compiler. Each function of the loaded Image is translated, once, into
// a chain of Go closures per basic block — with fused superinstructions
// for the shapes element code runs hot (compare+branch, const+ALU,
// global address+load, ALU+load/mov, mov pairs, indexed loads, and
// strided accumulate runs) — and the per-instruction interpreter
// overhead (opcode switch, pc bounds check, fetch model, step/fuel
// checks) is replaced by one bulk check per straight-line segment.
//
// The compiled path preserves the interpreter's full runtime contract:
//
//   - Executed is exact at every observable point. Straight-line
//     segments end at call instructions, so a callee never sees
//     pre-counted instructions that follow the call; a trapping op rolls
//     the pre-count back to the instructions that actually ran; and when
//     a step/fuel limit could fire inside a segment, the segment is not
//     bulk-executed at all — the frame falls back to the interpreter
//     loop (execLoop with model=false), which traps at the exact
//     instruction the reference backend would.
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
//     one slice loop sums it without per-round checks. Any other run
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
//     callee's, and the hot call path stays allocation-free. A compiled
//     function carries its dense index (CallInfo.Index), so the PostCall
//     hook gets it without a lookup.
//
// The one deliberate difference is the fetch model: compiled code does
// not simulate the instruction cache, so Stalls and ICacheRefs/ICacheMiss
// stay zero and, exactly,
//
//	Cycles(compiled) == Cycles(interp) − Stalls(interp).
//
// The backend-differential suite (backend_differential_test.go at the
// repo root, FuzzBackendEquivalence here) holds both backends to these
// invariants on every example, kernel, and fuzzed lifecycle sequence.

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
	// BackendCompiled runs closure-compiled code: identical program
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
	case "compiled", "closure", "closures":
		return BackendCompiled, nil
	}
	return 0, fmt.Errorf("machine: unknown backend %q (want interp or compiled)", s)
}

// Options configures machine creation beyond the image itself.
type Options struct {
	Backend Backend
}

// NewWith creates a machine for a loaded image with options.
func NewWith(img *Image, opts Options) *M {
	m := New(img)
	m.backend = opts.Backend
	return m
}

// SetBackend switches the execution engine. Switch between runs, not
// from inside simulated code: a frame started on one backend finishes
// on it.
func (m *M) SetBackend(b Backend) { m.backend = b }

// Backend reports the machine's execution engine.
func (m *M) Backend() Backend { return m.backend }

// copFn executes one (possibly fused) non-control instruction over the
// frame's registers.
type copFn func(m *M, regs []int64, fp int64) error

// ctermFn ends a basic block, returning the next block index (or
// blockRet), the function's return value when it does return, and the
// trap if control left the function's code.
type ctermFn func(m *M, regs []int64, fp int64) (int32, int64, error)

// blockRet is the ctermFn sentinel for "the function returned".
const blockRet = int32(-1)

// cseg is a run of straight-line instructions whose step/fuel
// accounting is done in bulk. A segment never extends past a call
// instruction, so Executed is exact whenever another frame (or a hook,
// or a builtin) can observe it.
type cseg struct {
	startPC int   // pc of the first instruction; exact-fallback entry point
	n       int64 // simulated instructions in the segment, terminator included
	ops     []copFn
	// done[i] is the number of segment instructions counted once ops[i]
	// completes; on a trap the pre-counted remainder (n - done[i]) is
	// rolled back so the counters match the interpreter's trap point.
	done []int64
}

// cblock is one basic block: its segments and the terminator.
type cblock struct {
	segs []cseg
	term ctermFn
}

// cfunc is one compiled function.
type cfunc struct {
	fn      *obj.Func
	index   int // the function's dense index (CallInfo.Index)
	blocks  []cblock
	siteEnd int // one past the highest dispatch-cache slot the code uses
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
		for i, fn := range img.funcs { // text order: deterministic slot numbering
			p.funcs[i] = compileFunc(fn, nil, img, &next)
			p.funcs[i].index = i
		}
		p.nsites = next
		img.compiled = p
	})
	return img.compiled
}

// compiledFor returns the compiled form of fn: the image-wide one for
// static functions, a per-machine (lazily built) one for dynamically
// loaded functions. Dynamic compilations bake in symbol addresses,
// which is sound because a live module's addresses never move — loads
// validate resolution, unload is refused while referenced, and
// unload/restore/reset drop the cache wholesale.
func (m *M) compiledFor(fn *obj.Func) *cfunc {
	p := m.Img.prog()
	if m.nextSite < p.nsites {
		m.nextSite = p.nsites
	}
	if i, ok := m.Img.index[fn]; ok {
		return p.funcs[i]
	}
	if cf, ok := m.dynCompiled[fn]; ok {
		return cf
	}
	cf := compileFunc(fn, m, m.Img, &m.nextSite)
	cf.index = m.dyn.index[fn.Name]
	if m.dynCompiled == nil {
		m.dynCompiled = map[*obj.Func]*cfunc{}
	}
	m.dynCompiled[fn] = cf
	return cf
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
// step/fuel check and one bulk counter update, then the ops; per block,
// the terminator. When a segment could cross a limit, the rest of the
// frame runs on the exact interpreter loop instead (nested calls made
// from there still dispatch compiled).
func (m *M) runCompiled(cf *cfunc, regs []int64, fp int64) (int64, error) {
	if cf.siteEnd > len(m.sites) {
		m.growSites(cf.siteEnd)
	}
	bi := int32(0)
	for {
		b := &cf.blocks[bi]
		for si := range b.segs {
			s := &b.segs[si]
			if m.Executed+s.n > m.budgetEnd {
				// A limit fires somewhere in this segment: let the
				// interpreter find the exact instruction.
				return m.execLoop(cf.fn, regs, fp, s.startPC, false)
			}
			m.Executed += s.n
			m.Cycles += s.n * m.Costs.Instr
			for oi, op := range s.ops {
				if err := op(m, regs, fp); err != nil {
					// Keep only the instructions that actually ran.
					drop := s.n - s.done[oi]
					m.Executed -= drop
					m.Cycles -= drop * m.Costs.Instr
					return 0, err
				}
			}
		}
		next, ret, err := b.term(m, regs, fp)
		if err != nil {
			return 0, err
		}
		if next < 0 {
			return ret, nil
		}
		bi = next
	}
}

// compiledDispatch performs a direct call from compiled code through
// the dispatch cache, mirroring the interpreter's dispatch: interpose
// resolution, image → dynamic → builtin lookup order, identical cycle
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
		return m.invoke(cf.fn, cf, regs, argRegs)
	case siteBuiltin:
		m.BuiltinCnt++
		m.Cycles += m.Costs.Builtin
		return m.callBuiltin(c.b, regs, argRegs)
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
	if fn, ok := m.Img.Entry[final]; ok {
		c.kind, c.cf = siteFunc, m.compiledFor(fn)
	} else if fn, ok := m.dynFunc(final); ok {
		c.kind, c.cf = siteFunc, m.compiledFor(fn)
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
		fn, ok := m.Img.funcByAddr[target]
		if !ok {
			fn, ok = m.dynFuncByAddr(target)
		}
		if !ok {
			return 0, &Trap{Kind: TrapUnresolvedSymbol,
				Msg: fmt.Sprintf("indirect call to non-function address %#x", target), Func: caller, PC: pc}
		}
		cf = m.compiledFor(fn)
		c = &m.sites[site] // compiledFor may have grown the cache
		c.version, c.kind, c.cf, c.lastAddr = m.dispVersion, siteFunc, cf, target
	}
	m.IndCalls++
	m.Cycles += m.Costs.CallBase + m.Costs.Indirect + m.Costs.CallPerArg*int64(len(argRegs))
	return m.invoke(cf.fn, cf, regs, argRegs)
}

// trapTerm builds a terminator that traps. The Trap is allocated per
// occurrence: callers annotate traps (Run fills in Unit), and compiled
// code is shared across machines.
func trapTerm(kind TrapKind, msg, fname string, pc int) ctermFn {
	return func(m *M, regs []int64, fp int64) (int32, int64, error) {
		return 0, 0, &Trap{Kind: kind, Msg: msg, Func: fname, PC: pc}
	}
}

// trapOp builds a body op that traps (undefined symbol slots, bad
// opcodes): counted like the interpreter counts them, then trapping.
func trapOp(kind TrapKind, msg, fname string, pc int) copFn {
	return func(m *M, regs []int64, fp int64) error {
		return &Trap{Kind: kind, Msg: msg, Func: fname, PC: pc}
	}
}

// compileFunc translates one function. m is nil for the static image
// pass (symbols resolve against the image alone); for dynamic functions
// it is the owning machine, whose live symbol tables resolve the
// module's references. next allocates dispatch-cache slots.
func compileFunc(fn *obj.Func, m *M, img *Image, next *int) *cfunc {
	code := fn.Code
	n := len(code)
	cf := &cfunc{fn: fn}
	if n == 0 {
		// The interpreter traps "pc out of range" before counting
		// anything; an empty block with a trapping terminator matches.
		cf.blocks = []cblock{{
			segs: []cseg{{startPC: 0}},
			term: trapTerm(TrapGeneric, "pc out of range", fn.Name, 0),
		}}
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
			if pc+1 < n {
				isLeader[pc+1] = true
			}
		case obj.OpBranch:
			mark(code[pc].Targets[0])
			mark(code[pc].Targets[1])
			if pc+1 < n {
				isLeader[pc+1] = true
			}
		case obj.OpRet:
			if pc+1 < n {
				isLeader[pc+1] = true
			}
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
		blocks = append(blocks, compileBlock(fn, pc, end, blockIdx, m, img, next))
		pc = end
	}
	cf.blocks = blocks
	cf.siteEnd = *next
	return cf
}

// compileBlock translates code[start:end) — one basic block — into
// segments of fused closures plus a terminator.
func compileBlock(fn *obj.Func, start, end int, blockIdx []int32, m *M, img *Image, next *int) cblock {
	code := fn.Code
	n := len(code)
	fname := fn.Name
	var b cblock
	cur := cseg{startPC: start}
	emit := func(op copFn, width int64) {
		cur.n += width
		if op != nil {
			cur.ops = append(cur.ops, op)
			cur.done = append(cur.done, cur.n)
		}
	}
	closeSeg := func(nextPC int) {
		b.segs = append(b.segs, cur)
		cur = cseg{startPC: nextPC}
	}
	validPC := func(t int) bool { return t >= 0 && t < n }

	pc := start
	for pc < end {
		in := &code[pc]
		switch in.Op {
		case obj.OpJump:
			cur.n++ // the jump executes (and is counted) before control moves
			if t := in.Targets[0]; validPC(t) {
				tb := blockIdx[t]
				b.term = func(m *M, regs []int64, fp int64) (int32, int64, error) {
					return tb, 0, nil
				}
			} else {
				b.term = trapTerm(TrapGeneric, "pc out of range", fname, in.Targets[0])
			}
			pc++

		case obj.OpBranch:
			cur.n++
			a := in.A
			t0, t1 := in.Targets[0], in.Targets[1]
			if validPC(t0) && validPC(t1) {
				b0, b1 := blockIdx[t0], blockIdx[t1]
				b.term = func(m *M, regs []int64, fp int64) (int32, int64, error) {
					if regs[a] != 0 {
						return b0, 0, nil
					}
					return b1, 0, nil
				}
			} else {
				idx := blockIdx
				b.term = func(m *M, regs []int64, fp int64) (int32, int64, error) {
					t := t1
					if regs[a] != 0 {
						t = t0
					}
					if t < 0 || t >= n {
						return 0, 0, &Trap{Msg: "pc out of range", Func: fname, PC: t}
					}
					return idx[t], 0, nil
				}
			}
			pc++

		case obj.OpRet:
			cur.n++
			if in.HasVal {
				a := in.A
				b.term = func(m *M, regs []int64, fp int64) (int32, int64, error) {
					return blockRet, regs[a], nil
				}
			} else {
				b.term = func(m *M, regs []int64, fp int64) (int32, int64, error) {
					return blockRet, 0, nil
				}
			}
			pc++

		case obj.OpBin:
			// Fused compare-and-branch: the comparison is the last body
			// instruction, the branch the terminator, branching on the
			// comparison's (still architecturally written) result.
			if pc+2 == end && code[pc+1].Op == obj.OpBranch && code[pc+1].A == in.Dst {
				br := &code[pc+1]
				t0, t1 := br.Targets[0], br.Targets[1]
				if validPC(t0) && validPC(t1) {
					if term := cmpBranchTerm(cmini.Tok(in.Tok), in.Dst, in.A, in.B, blockIdx[t0], blockIdx[t1]); term != nil {
						cur.n += 2
						b.term = term
						pc += 2
						continue
					}
				}
			}
			if op, w := fuseBinChain(code, pc, end, fname); op != nil {
				emit(op, w)
				pc += int(w)
				continue
			}
			emit(compileBin(cmini.Tok(in.Tok), in.Dst, in.A, in.B, fname, pc), 1)
			pc++

		case obj.OpConst:
			// Fused indexed load: "v = base[imm]" and its accumulate form.
			if op, w := fuseIndexedLoad(code, pc, end, fname); op != nil {
				emit(op, w)
				pc += int(w)
				continue
			}
			// Fused ALU-immediate: const feeding the next op's B operand.
			if pc+1 < end {
				in2 := &code[pc+1]
				if in2.Op == obj.OpBin && in2.B == in.Dst && in2.A != in.Dst {
					if op := compileBinImm(cmini.Tok(in2.Tok), in.Dst, in.Imm, in2.Dst, in2.A); op != nil {
						emit(op, 2)
						pc += 2
						continue
					}
				}
			}
			dst, imm := in.Dst, in.Imm
			emit(func(m *M, regs []int64, fp int64) error {
				regs[dst] = imm
				return nil
			}, 1)
			pc++

		case obj.OpMov:
			// Batched unrolled accumulate runs first, then the single
			// mov-led indexed-load superinstruction.
			if op, w := fuseIndexedRun(code, pc, end, fname); op != nil {
				emit(op, w)
				pc += int(w)
				continue
			}
			if op, w := fuseIndexedLoad(code, pc, end, fname); op != nil {
				emit(op, w)
				pc += int(w)
				continue
			}
			if pc+1 < end {
				in2 := &code[pc+1]
				if in2.Op == obj.OpMov {
					d1, a1, d2, a2 := in.Dst, in.A, in2.Dst, in2.A
					emit(func(m *M, regs []int64, fp int64) error {
						regs[d1] = regs[a1]
						regs[d2] = regs[a2]
						return nil
					}, 2)
					pc += 2
					continue
				}
				if in2.Op == obj.OpConst {
					d1, a1, d2, imm := in.Dst, in.A, in2.Dst, in2.Imm
					emit(func(m *M, regs []int64, fp int64) error {
						regs[d1] = regs[a1]
						regs[d2] = imm
						return nil
					}, 2)
					pc += 2
					continue
				}
			}
			dst, a := in.Dst, in.A
			emit(func(m *M, regs []int64, fp int64) error {
				regs[dst] = regs[a]
				return nil
			}, 1)
			pc++

		case obj.OpUn:
			emit(compileUn(cmini.Tok(in.Tok), in.Dst, in.A, fname, pc), 1)
			pc++

		case obj.OpLoad:
			a, dst, lpc := in.A, in.Dst, pc
			emit(func(m *M, regs []int64, fp int64) error {
				addr := regs[a]
				if addr < nullGuard || addr >= int64(len(m.Mem)) {
					return &Trap{Kind: TrapBadAddress,
						Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: lpc}
				}
				regs[dst] = m.Mem[addr]
				return nil
			}, 1)
			pc++

		case obj.OpStore:
			a, bReg, spc := in.A, in.B, pc
			emit(func(m *M, regs []int64, fp int64) error {
				addr := regs[a]
				if addr < nullGuard || addr >= int64(len(m.Mem)) {
					return &Trap{Kind: TrapBadAddress,
						Msg: fmt.Sprintf("store to invalid address %d", addr), Func: fname, PC: spc}
				}
				m.Mem[addr] = regs[bReg]
				return nil
			}, 1)
			pc++

		case obj.OpAddrLocal:
			dst, off := in.Dst, in.Imm
			emit(func(m *M, regs []int64, fp int64) error {
				regs[dst] = fp + off
				return nil
			}, 1)
			pc++

		case obj.OpAddrGlobal:
			addr, ok := int64(0), false
			if m != nil {
				addr, ok = m.resolveAddr(in.Sym)
			} else {
				if a, found := img.GlobalAddr[in.Sym]; found {
					addr, ok = a, true
				} else if a, found := img.FuncAddr[in.Sym]; found {
					addr, ok = a, true
				}
			}
			if !ok {
				// Load/LoadDynamicAs validate every OpAddrGlobal, so this
				// closure is unreachable in practice; keep the
				// interpreter's trap for safety.
				emit(trapOp(TrapUnresolvedSymbol, "unresolved symbol "+in.Sym, fname, pc), 1)
				pc++
				continue
			}
			// Fused global load: address is a compile-time constant.
			if pc+1 < end && code[pc+1].Op == obj.OpLoad && code[pc+1].A == in.Dst {
				ad, dst, lpc, ga := in.Dst, code[pc+1].Dst, pc+1, addr
				emit(func(m *M, regs []int64, fp int64) error {
					regs[ad] = ga
					if ga < nullGuard || ga >= int64(len(m.Mem)) {
						return &Trap{Kind: TrapBadAddress,
							Msg: fmt.Sprintf("load from invalid address %d", ga), Func: fname, PC: lpc}
					}
					regs[dst] = m.Mem[ga]
					return nil
				}, 2)
				pc += 2
				continue
			}
			dst, ga := in.Dst, addr
			emit(func(m *M, regs []int64, fp int64) error {
				regs[dst] = ga
				return nil
			}, 1)
			pc++

		case obj.OpAddrString:
			if idx := int(in.Imm); idx >= 0 && idx < len(img.strAddr) {
				dst, sa := in.Dst, img.strAddr[idx]
				emit(func(m *M, regs []int64, fp int64) error {
					regs[dst] = sa
					return nil
				}, 1)
			} else {
				emit(trapOp(TrapBadStringIndex, "bad string literal index", fname, pc), 1)
			}
			pc++

		case obj.OpCall:
			site := *next
			*next++
			sym, argRegs, dst, cpc := in.Sym, in.Args, in.Dst, pc
			emit(func(m *M, regs []int64, fp int64) error {
				v, err := m.compiledDispatch(site, sym, regs, argRegs, fname, cpc)
				if err != nil {
					return err
				}
				regs[dst] = v
				return nil
			}, 1)
			closeSeg(pc + 1)
			pc++

		case obj.OpCallInd:
			site := *next
			*next++
			aReg, argRegs, dst, cpc := in.A, in.Args, in.Dst, pc
			emit(func(m *M, regs []int64, fp int64) error {
				v, err := m.compiledCallInd(site, regs, aReg, argRegs, fname, cpc)
				if err != nil {
					return err
				}
				regs[dst] = v
				return nil
			}, 1)
			closeSeg(pc + 1)
			pc++

		default:
			emit(trapOp(TrapGeneric, "bad opcode", fname, pc), 1)
			pc++
		}
	}

	if b.term == nil {
		// Fell off the block: into the next leader, or off the end of
		// the function (which the interpreter reports as pc out of
		// range without counting an instruction).
		if end < n {
			tb := blockIdx[end]
			b.term = func(m *M, regs []int64, fp int64) (int32, int64, error) {
				return tb, 0, nil
			}
		} else {
			b.term = trapTerm(TrapGeneric, "pc out of range", fname, end)
		}
	}
	if cur.n > 0 || len(cur.ops) > 0 || len(b.segs) == 0 {
		b.segs = append(b.segs, cur)
	}
	return b
}

// compileBin specializes a register-register ALU op; the default arm
// defers to obj.EvalBin so unknown tokens trap exactly like the
// interpreter.
func compileBin(tok cmini.Tok, dst, a, b obj.Reg, fname string, pc int) copFn {
	switch tok {
	case cmini.PLUS:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = regs[a] + regs[b]; return nil }
	case cmini.MINUS:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = regs[a] - regs[b]; return nil }
	case cmini.STAR:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = regs[a] * regs[b]; return nil }
	case cmini.SLASH:
		return func(m *M, regs []int64, fp int64) error {
			d := regs[b]
			if d == 0 {
				return &Trap{Msg: "divide by zero", Func: fname, PC: pc}
			}
			regs[dst] = regs[a] / d
			return nil
		}
	case cmini.PERCENT:
		return func(m *M, regs []int64, fp int64) error {
			d := regs[b]
			if d == 0 {
				return &Trap{Msg: "divide by zero", Func: fname, PC: pc}
			}
			regs[dst] = regs[a] % d
			return nil
		}
	case cmini.SHL:
		return func(m *M, regs []int64, fp int64) error {
			regs[dst] = regs[a] << (uint64(regs[b]) & 63)
			return nil
		}
	case cmini.SHR:
		return func(m *M, regs []int64, fp int64) error {
			regs[dst] = int64(uint64(regs[a]) >> (uint64(regs[b]) & 63))
			return nil
		}
	case cmini.AMP:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = regs[a] & regs[b]; return nil }
	case cmini.PIPE:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = regs[a] | regs[b]; return nil }
	case cmini.CARET:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = regs[a] ^ regs[b]; return nil }
	case cmini.LT:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = b2i(regs[a] < regs[b]); return nil }
	case cmini.GT:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = b2i(regs[a] > regs[b]); return nil }
	case cmini.LE:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = b2i(regs[a] <= regs[b]); return nil }
	case cmini.GE:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = b2i(regs[a] >= regs[b]); return nil }
	case cmini.EQ:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = b2i(regs[a] == regs[b]); return nil }
	case cmini.NE:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = b2i(regs[a] != regs[b]); return nil }
	}
	return func(m *M, regs []int64, fp int64) error {
		v, err := obj.EvalBin(tok, regs[a], regs[b])
		if err != nil {
			return &Trap{Msg: err.Error(), Func: fname, PC: pc}
		}
		regs[dst] = v
		return nil
	}
}

// compileBinImm fuses "const cd, imm; bin dst, a, cd" into one closure.
// The constant is still written to its register. Trapping and unknown
// tokens return nil (no fusion) so their exact interpreter semantics —
// which count the two instructions separately — are preserved by the
// unfused path.
func compileBinImm(tok cmini.Tok, cd obj.Reg, imm int64, dst, a obj.Reg) copFn {
	switch tok {
	case cmini.PLUS:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = regs[a] + imm; return nil }
	case cmini.MINUS:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = regs[a] - imm; return nil }
	case cmini.STAR:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = regs[a] * imm; return nil }
	case cmini.SHL:
		sh := uint64(imm) & 63
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = regs[a] << sh; return nil }
	case cmini.SHR:
		sh := uint64(imm) & 63
		return func(m *M, regs []int64, fp int64) error {
			regs[cd] = imm
			regs[dst] = int64(uint64(regs[a]) >> sh)
			return nil
		}
	case cmini.AMP:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = regs[a] & imm; return nil }
	case cmini.PIPE:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = regs[a] | imm; return nil }
	case cmini.CARET:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = regs[a] ^ imm; return nil }
	case cmini.LT:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = b2i(regs[a] < imm); return nil }
	case cmini.GT:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = b2i(regs[a] > imm); return nil }
	case cmini.LE:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = b2i(regs[a] <= imm); return nil }
	case cmini.GE:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = b2i(regs[a] >= imm); return nil }
	case cmini.EQ:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = b2i(regs[a] == imm); return nil }
	case cmini.NE:
		return func(m *M, regs []int64, fp int64) error { regs[cd] = imm; regs[dst] = b2i(regs[a] != imm); return nil }
	}
	return nil
}

// pureBin returns a direct evaluator for a binary token that can never
// trap, or nil for SLASH, PERCENT, and unknown tokens. Fusions use it to
// decide whether an ALU op may ride inside a superinstruction at a
// position other than the last: a trap inside a fused group must only be
// able to happen where the group's error path accounts for it.
func pureBin(tok cmini.Tok) func(a, b int64) int64 {
	switch tok {
	case cmini.PLUS:
		return func(a, b int64) int64 { return a + b }
	case cmini.MINUS:
		return func(a, b int64) int64 { return a - b }
	case cmini.STAR:
		return func(a, b int64) int64 { return a * b }
	case cmini.SHL:
		return func(a, b int64) int64 { return a << (uint64(b) & 63) }
	case cmini.SHR:
		return func(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) }
	case cmini.AMP:
		return func(a, b int64) int64 { return a & b }
	case cmini.PIPE:
		return func(a, b int64) int64 { return a | b }
	case cmini.CARET:
		return func(a, b int64) int64 { return a ^ b }
	case cmini.LT:
		return func(a, b int64) int64 { return b2i(a < b) }
	case cmini.GT:
		return func(a, b int64) int64 { return b2i(a > b) }
	case cmini.LE:
		return func(a, b int64) int64 { return b2i(a <= b) }
	case cmini.GE:
		return func(a, b int64) int64 { return b2i(a >= b) }
	case cmini.EQ:
		return func(a, b int64) int64 { return b2i(a == b) }
	case cmini.NE:
		return func(a, b int64) int64 { return b2i(a != b) }
	}
	return nil
}

// fuseIndexedLoad recognizes the indexed-load superinstruction family
//
//	[mov p, base;] const k, imm; bin+ a, x, y; load v, a [; bin+ s, u, w; mov d, s']
//
// — the code shape compilers emit for "v = base[imm]" and its
// accumulate form "acc += base[imm]" (the single hottest pattern in
// unrolled element code). The closure performs the exact sequential
// register writes, so operand aliasing needs no side conditions; both
// ALU ops are required to be PLUS (address arithmetic), so the load in
// the middle is the group's only trap point, and its error path rolls
// back the tail instructions that did not run.
func fuseIndexedLoad(code []obj.Instr, pc, end int, fname string) (copFn, int64) {
	p := pc
	lead := code[p].Op == obj.OpMov
	if lead {
		p++
	}
	if p+2 >= end ||
		code[p].Op != obj.OpConst ||
		code[p+1].Op != obj.OpBin || cmini.Tok(code[p+1].Tok) != cmini.PLUS ||
		code[p+2].Op != obj.OpLoad {
		return nil, 0
	}
	tail := p+4 < end &&
		code[p+3].Op == obj.OpBin && cmini.Tok(code[p+3].Tok) == cmini.PLUS &&
		code[p+4].Op == obj.OpMov
	kd, imm := code[p].Dst, code[p].Imm
	bd, bA, bB := code[p+1].Dst, code[p+1].A, code[p+1].B
	ld, lA, lpc := code[p+2].Dst, code[p+2].A, p+2

	switch {
	case lead && tail:
		lmD, lmA := code[pc].Dst, code[pc].A
		td, tA, tB := code[p+3].Dst, code[p+3].A, code[p+3].B
		tmD, tmA := code[p+4].Dst, code[p+4].A
		return func(m *M, regs []int64, fp int64) error {
			regs[lmD] = regs[lmA]
			regs[kd] = imm
			regs[bd] = regs[bA] + regs[bB]
			addr := regs[lA]
			if addr < nullGuard || addr >= int64(len(m.Mem)) {
				m.Executed -= 2
				m.Cycles -= 2 * m.Costs.Instr
				return &Trap{Kind: TrapBadAddress,
					Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: lpc}
			}
			regs[ld] = m.Mem[addr]
			regs[td] = regs[tA] + regs[tB]
			regs[tmD] = regs[tmA]
			return nil
		}, 6
	case lead:
		lmD, lmA := code[pc].Dst, code[pc].A
		return func(m *M, regs []int64, fp int64) error {
			regs[lmD] = regs[lmA]
			regs[kd] = imm
			regs[bd] = regs[bA] + regs[bB]
			addr := regs[lA]
			if addr < nullGuard || addr >= int64(len(m.Mem)) {
				return &Trap{Kind: TrapBadAddress,
					Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: lpc}
			}
			regs[ld] = m.Mem[addr]
			return nil
		}, 4
	case tail:
		td, tA, tB := code[p+3].Dst, code[p+3].A, code[p+3].B
		tmD, tmA := code[p+4].Dst, code[p+4].A
		return func(m *M, regs []int64, fp int64) error {
			regs[kd] = imm
			regs[bd] = regs[bA] + regs[bB]
			addr := regs[lA]
			if addr < nullGuard || addr >= int64(len(m.Mem)) {
				m.Executed -= 2
				m.Cycles -= 2 * m.Costs.Instr
				return &Trap{Kind: TrapBadAddress,
					Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: lpc}
			}
			regs[ld] = m.Mem[addr]
			regs[td] = regs[tA] + regs[tB]
			regs[tmD] = regs[tmA]
			return nil
		}, 5
	default:
		return func(m *M, regs []int64, fp int64) error {
			regs[kd] = imm
			regs[bd] = regs[bA] + regs[bB]
			addr := regs[lA]
			if addr < nullGuard || addr >= int64(len(m.Mem)) {
				return &Trap{Kind: TrapBadAddress,
					Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: lpc}
			}
			regs[ld] = m.Mem[addr]
			return nil
		}, 3
	}
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
// loop — and batches them into one closure when
// fuseIndexedRunStrided accepts the run, so an unrolled loop of N
// array reads costs N loop iterations instead of N closure dispatches.
// Otherwise it reports no fusion and the rounds compile op by op.
func fuseIndexedRun(code []obj.Instr, pc, end int, fname string) (copFn, int64) {
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
		return nil, 0
	}
	if op := fuseIndexedRunStrided(rs, fname); op != nil {
		return op, int64(6 * len(rs))
	}
	return nil, 0
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
func fuseIndexedRunStrided(rs []ixRound, fname string) copFn {
	base, acc := rs[0].lmA, rs[0].tA
	if base == acc {
		return nil
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
			return nil
		}
		for _, tmp := range [4]obj.Reg{r.lmD, r.kd, r.bd, r.ld} {
			if tmp == acc || (tmp == base && i < final) {
				return nil
			}
		}
		if r.td == base && i < final {
			return nil
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
			return nil
		}
	}
	imms := make([]int64, len(rs))
	for i := range rs {
		imms[i] = rs[i].imm
	}
	sorted := slices.Clone(imms)
	slices.Sort(sorted)
	lo, hi := sorted[0], sorted[final]
	contiguous := true
	for i, imm := range sorted {
		contiguous = contiguous && imm == lo+int64(i)
	}
	w := int64(6 * len(rs))
	return func(m *M, regs []int64, fp int64) error {
		mem := m.Mem
		memLen := int64(len(mem))
		b := regs[base]
		a := regs[acc]
		if first, last := b+lo, b+hi; contiguous && first >= nullGuard && last < memLen && first <= last {
			for _, word := range mem[first : last+1] {
				a += word
			}
		} else {
			for i, imm := range imms {
				addr := b + imm
				if addr < nullGuard || addr >= memLen {
					// The frame is dead after a trap — no later instruction
					// will read regs — so only the counters need fixing.
					adj := w - (6*int64(i) + 4)
					m.Executed -= adj
					m.Cycles -= adj * m.Costs.Instr
					return &Trap{Kind: TrapBadAddress,
						Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: rs[i].lpc}
				}
				a += mem[addr]
			}
		}
		for _, wr := range writes {
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
}

// fuseBinChain fuses a non-trapping ALU op with its consumer: "bin;
// load" (address arithmetic feeding a dereference) or "bin; mov"
// (result copied into a named variable's register). PLUS gets an
// inlined body; other pure tokens go through one captured evaluator,
// still one dispatch instead of two.
func fuseBinChain(code []obj.Instr, pc, end int, fname string) (copFn, int64) {
	if pc+1 >= end {
		return nil, 0
	}
	in, in2 := &code[pc], &code[pc+1]
	tok := cmini.Tok(in.Tok)
	bd, bA, bB := in.Dst, in.A, in.B
	switch in2.Op {
	case obj.OpLoad:
		ld, lA, lpc := in2.Dst, in2.A, pc+1
		if tok == cmini.PLUS {
			return func(m *M, regs []int64, fp int64) error {
				regs[bd] = regs[bA] + regs[bB]
				addr := regs[lA]
				if addr < nullGuard || addr >= int64(len(m.Mem)) {
					return &Trap{Kind: TrapBadAddress,
						Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: lpc}
				}
				regs[ld] = m.Mem[addr]
				return nil
			}, 2
		}
		if f := pureBin(tok); f != nil {
			return func(m *M, regs []int64, fp int64) error {
				regs[bd] = f(regs[bA], regs[bB])
				addr := regs[lA]
				if addr < nullGuard || addr >= int64(len(m.Mem)) {
					return &Trap{Kind: TrapBadAddress,
						Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fname, PC: lpc}
				}
				regs[ld] = m.Mem[addr]
				return nil
			}, 2
		}
	case obj.OpMov:
		md, mA := in2.Dst, in2.A
		if tok == cmini.PLUS {
			return func(m *M, regs []int64, fp int64) error {
				regs[bd] = regs[bA] + regs[bB]
				regs[md] = regs[mA]
				return nil
			}, 2
		}
		if f := pureBin(tok); f != nil {
			return func(m *M, regs []int64, fp int64) error {
				regs[bd] = f(regs[bA], regs[bB])
				regs[md] = regs[mA]
				return nil
			}, 2
		}
	}
	return nil, 0
}

// compileUn specializes a unary ALU op.
func compileUn(tok cmini.Tok, dst, a obj.Reg, fname string, pc int) copFn {
	switch tok {
	case cmini.MINUS:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = -regs[a]; return nil }
	case cmini.NOT:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = b2i(regs[a] == 0); return nil }
	case cmini.TILDE:
		return func(m *M, regs []int64, fp int64) error { regs[dst] = ^regs[a]; return nil }
	}
	return func(m *M, regs []int64, fp int64) error {
		v, err := obj.EvalUn(tok, regs[a])
		if err != nil {
			return &Trap{Msg: err.Error(), Func: fname, PC: pc}
		}
		regs[dst] = v
		return nil
	}
}

// cmpBranchTerm fuses "cmp cd, x, y; branch cd, then, else" into one
// terminator; the comparison result is still written to its register.
// Returns nil for non-comparison tokens (which may trap and must not be
// fused into the uncounted terminator position).
func cmpBranchTerm(tok cmini.Tok, cd, x, y obj.Reg, bt, bf int32) ctermFn {
	switch tok {
	case cmini.LT:
		return func(m *M, regs []int64, fp int64) (int32, int64, error) {
			if regs[x] < regs[y] {
				regs[cd] = 1
				return bt, 0, nil
			}
			regs[cd] = 0
			return bf, 0, nil
		}
	case cmini.GT:
		return func(m *M, regs []int64, fp int64) (int32, int64, error) {
			if regs[x] > regs[y] {
				regs[cd] = 1
				return bt, 0, nil
			}
			regs[cd] = 0
			return bf, 0, nil
		}
	case cmini.LE:
		return func(m *M, regs []int64, fp int64) (int32, int64, error) {
			if regs[x] <= regs[y] {
				regs[cd] = 1
				return bt, 0, nil
			}
			regs[cd] = 0
			return bf, 0, nil
		}
	case cmini.GE:
		return func(m *M, regs []int64, fp int64) (int32, int64, error) {
			if regs[x] >= regs[y] {
				regs[cd] = 1
				return bt, 0, nil
			}
			regs[cd] = 0
			return bf, 0, nil
		}
	case cmini.EQ:
		return func(m *M, regs []int64, fp int64) (int32, int64, error) {
			if regs[x] == regs[y] {
				regs[cd] = 1
				return bt, 0, nil
			}
			regs[cd] = 0
			return bf, 0, nil
		}
	case cmini.NE:
		return func(m *M, regs []int64, fp int64) (int32, int64, error) {
			if regs[x] != regs[y] {
				regs[cd] = 1
				return bt, 0, nil
			}
			regs[cd] = 0
			return bf, 0, nil
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
