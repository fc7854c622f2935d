// Package machine executes linked object files on a simulated CPU with a
// deterministic cost model: per-instruction cycles, function-call and
// indirect-call overheads, and a direct-mapped instruction cache whose
// miss stalls are accounted separately (the paper's "instr. fetch stall
// cycles" column). It stands in for the 200 MHz Pentium Pro testbed of
// the paper's evaluation; absolute numbers differ, but relative costs —
// call overhead, indirection penalties, I-cache behaviour — reproduce the
// effects the paper measures.
package machine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// Costs is the machine's cost model, in cycles.
type Costs struct {
	Instr      int64 // every executed instruction
	CallBase   int64 // extra cycles per direct call (call+prologue+ret)
	CallPerArg int64 // extra cycles per argument pushed
	Indirect   int64 // extra cycles per indirect call, on top of CallBase
	Builtin    int64 // cycles charged for a builtin (device) call
	ICacheMiss int64 // stall cycles per non-sequential instruction-cache miss
	// ICacheSeqMiss is the (small) stall charged when the missing line
	// directly follows the previously fetched line: sequential prefetch
	// hides most of the latency, so straight-line code (what flattening
	// produces) fetches cheaply while scattered call targets pay full
	// misses — the effect behind Table 1's i-fetch stall column.
	ICacheSeqMiss int64
	ICacheBytes   int // total I-cache size in bytes (0 disables the cache)
	ICacheLine    int // line size in bytes
	InstrBytes    int // encoded size of one instruction (text accounting)
	FuncPad       int // per-function text padding/alignment in bytes
}

// DefaultCosts resemble a late-90s in-order x86 pipeline closely enough
// to reproduce the paper's relative results.
func DefaultCosts() Costs {
	return Costs{
		Instr:         1,
		CallBase:      6,
		CallPerArg:    2,
		Indirect:      4,
		Builtin:       8,
		ICacheMiss:    12,
		ICacheSeqMiss: 2,
		ICacheBytes:   8 * 1024,
		ICacheLine:    32,
		InstrBytes:    4,
		FuncPad:       16,
	}
}

// Memory layout constants.
const (
	nullGuard  = 16             // addresses [0,16) trap, catching NULL derefs
	textBase   = int64(1) << 40 // function addresses live far above data
	stackWords = 1 << 16
)

// Image is a loaded program: globals placed, strings interned, function
// addresses assigned.
//
// Sharing contract: an Image is immutable once loaded, so any number of
// machines may run off the same Image concurrently — each M writes the
// initial data segment (the image's runs of nonzero words) into its own
// Mem at New and Reset (a Snapshot may refer to them read-only), and all
// other Image state (text, entry points, symbol records, interned
// strings, cost model) is only ever read after Load returns. The image's
// symbol records are the base of every machine's namespace; a machine's
// dynamic modules add records of their own in an overlay on M, never
// here, each module with its own string table and initial data runs,
// placed as the image's are. The one sanctioned post-Load write is the
// build layer assigning SymbolOwner exactly once, before any machine is
// created from the image. Everything mutable at run time — memory,
// stack, dynamic modules and their records, interposition redirects,
// hooks, counters — lives on M, never on Image. Code that adds Image
// state must either populate it fully inside Load or move it to M;
// internal/machine's shared-image race test (shared_test.go) is the
// regression net for violations.
type Image struct {
	File       *obj.File
	Entry      map[string]*obj.Func
	GlobalAddr map[string]int64
	FuncAddr   map[string]int64
	layout
	TextSize  int64
	DataWords int
	costs     Costs
	// syms holds the record of every defined symbol, by name. funcs
	// holds the function records in text order, which is ascending
	// address order, so a record's position there is its dense index.
	syms  map[string]*symbol
	funcs []*symbol
	// SymbolOwner, when set by the build layer, maps program-unique
	// symbol names to the unit-instance path that defined them, so traps
	// are attributed to components (fault isolation, not just fault
	// detection). Nil is fine: attribution is best-effort.
	SymbolOwner map[string]string

	// compiled is the compiled form of the static program (see
	// compile_backend.go), derived lazily — and exactly once — from the
	// immutable post-Load state by the first machine that runs with
	// BackendCompiled. Building it under the Once is the second
	// sanctioned post-Load write; all machines share the result
	// read-only. All mutable compiled-backend state (dispatch caches,
	// dynamic-module compilations) lives on M.
	compileOnce sync.Once
	compiled    *imageProg
}

// symbol is the one record of a defined symbol, function or data, in a
// machine's namespace. Every lookup by name or by address returns one.
// An image's records are built in Load and shared read-only by every
// machine on it. A dynamic module's records are its machine's own: its
// module lists them and the machine's overlay maps their names, and
// Snapshot and Restore copy them rather than share them, because two
// fields may change after the load: a Restore from another machine
// renumbers index, and the compiled engine fills in cf. A function's
// text offset is addr − textBase.
type symbol struct {
	name  string
	addr  int64
	fn    *obj.Func  // nil for data
	size  int64      // size in words (data)
	index int        // dense index, CallInfo.Index (functions)
	mod   *dynModule // the dynamic module that defined it; nil in the image
	cf    *cfunc     // this machine's compiled form of a dynamic function
}

// layout is what placing an object file gives beside its records: the
// addresses of its string literals, and its initial data as runs of
// nonzero words in ascending address order; every other word of its
// data starts zero. The image has one, and each dynamic module its own.
type layout struct {
	strAddr []int64
	init    []dataRun
}

// layoutOf returns the layout the record s was placed in: its module's,
// or the image's.
func (img *Image) layoutOf(s *symbol) *layout {
	if s.mod != nil {
		return &s.mod.layout
	}
	return &img.layout
}

// LoadError reports a problem resolving an object file into an image.
type LoadError struct{ Msg string }

func (e *LoadError) Error() string { return "machine: " + e.Msg }

// Load places the merged object file in memory. Every data symbol
// referenced by code or data initializers must be defined in f; function
// symbols may be left undefined if the runtime provides them as builtins
// (checked at call time).
func Load(f *obj.File, costs Costs) (*Image, error) {
	p, err := place(f, costs, nullGuard, 0, nil)
	if err != nil {
		return nil, err
	}
	img := &Image{
		File:       f,
		Entry:      f.Funcs,
		GlobalAddr: make(map[string]int64, len(f.Datas)),
		FuncAddr:   make(map[string]int64, len(f.Funcs)),
		layout:     p.layout,
		TextSize:   p.textEnd,
		DataWords:  int(p.dataEnd),
		costs:      costs,
		syms:       p.syms,
		funcs:      make([]*symbol, len(f.Funcs)),
	}
	for i := range p.recs {
		if s := &p.recs[i]; s.fn == nil {
			img.GlobalAddr[s.name] = s.addr
		} else {
			// Text order numbers the static functions 0…n−1.
			s.index = i - len(f.Datas)
			img.funcs[s.index] = s
			img.FuncAddr[s.name] = s.addr
		}
	}
	return img, nil
}

// placed is an object file laid out by place.
type placed struct {
	layout
	recs    []symbol // data in name order, then functions in name order
	syms    map[string]*symbol
	dataEnd int64 // the word after its data and strings
	textEnd int64 // the text offset after its functions
}

// place lays out the object file f, the image or a dynamic module, in
// one array of records that never moves: its data objects in name order
// from the word dataAt, then its string literals, and its functions in
// name order from the text offset textAt. A name f does not define
// resolves through outside, nil when nothing is outside f, and a name f
// defines must be new there. Every OpAddrGlobal operand must resolve,
// and every data initializer must lie inside its object, name a string
// f has and refer to a symbol that resolves.
func place(f *obj.File, costs Costs, dataAt, textAt int64, outside func(string) *symbol) (placed, *LoadError) {
	n := len(f.Datas) + len(f.Funcs)
	p := placed{recs: make([]symbol, 0, n), syms: make(map[string]*symbol, n)}
	define := func(s symbol) *LoadError {
		if p.syms[s.name] != nil {
			return &LoadError{Msg: fmt.Sprintf("symbol %q defined as both data and function", s.name)}
		}
		if outside != nil && outside(s.name) != nil {
			return &LoadError{Msg: fmt.Sprintf("symbol %q already defined", s.name)}
		}
		p.recs = append(p.recs, s)
		p.syms[s.name] = &p.recs[len(p.recs)-1]
		return nil
	}
	names := make([]string, 0, max(len(f.Datas), len(f.Funcs)))
	addr := dataAt
	for _, name := range sortedKeys(names, f.Datas) {
		size := int64(f.Datas[name].Size)
		if err := define(symbol{name: name, addr: addr, size: size}); err != nil {
			return placed{}, err
		}
		addr += size
	}
	p.strAddr = make([]int64, len(f.Strings))
	for i, s := range f.Strings {
		p.strAddr[i] = addr
		addr += int64(len(s)) + 1
	}
	text := textAt
	for _, name := range sortedKeys(names, f.Funcs) {
		fn := f.Funcs[name]
		if err := define(symbol{name: name, addr: textBase + text, fn: fn}); err != nil {
			return placed{}, err
		}
		text += int64(len(fn.Code)*costs.InstrBytes + costs.FuncPad)
	}
	p.dataEnd, p.textEnd = addr, text
	resolve := func(name string) *symbol {
		if s := p.syms[name]; s != nil || outside == nil {
			return s
		}
		return outside(name)
	}
	for _, s := range p.recs[len(f.Datas):] {
		for i := range s.fn.Code {
			if in := &s.fn.Code[i]; in.Op == obj.OpAddrGlobal && resolve(in.Sym) == nil {
				return placed{}, &LoadError{Msg: fmt.Sprintf("func %s: address of unresolved symbol %q", s.name, in.Sym)}
			}
		}
	}
	if err := p.layoutInit(f, p.recs[:len(f.Datas)], resolve); err != nil {
		return placed{}, err
	}
	return p, nil
}

// sortedKeys returns the keys of m in order, in buf's array.
func sortedKeys[V any](buf []string, m map[string]V) []string {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// dataRun is a stretch of nonzero words of a layout's initial data.
type dataRun struct {
	addr  int64
	words []int64
}

// initWord is one initialized word of a data object, at its offset.
type initWord struct {
	off int
	val int64
}

// layoutInit builds the initial data runs of f's data records datas,
// which are in ascending address order, and of its string literals,
// which follow them. Only a data object's own initializers can be out
// of order, so they alone are sorted, and only when they are; of
// several initializers of one word, the last wins.
func (l *layout) layoutInit(f *obj.File, datas []symbol, resolve func(string) *symbol) *LoadError {
	n := 0
	for _, d := range f.Datas {
		n += len(d.Init)
	}
	for _, s := range f.Strings {
		n += len(s)
	}
	b := runBuilder{words: make([]int64, 0, n)}
	var words []initWord
	byOffset := func(a, b initWord) int { return cmp.Compare(a.off, b.off) }
	for _, d := range datas {
		words = words[:0]
		for _, init := range f.Datas[d.name].Init {
			if init.Offset < 0 || int64(init.Offset) >= d.size {
				return &LoadError{Msg: fmt.Sprintf("data %s: initializer offset %d outside its %d words", d.name, init.Offset, d.size)}
			}
			var v int64
			switch init.Kind {
			case obj.InitConst:
				v = init.Val
			case obj.InitString:
				if init.Index < 0 || init.Index >= len(l.strAddr) {
					return &LoadError{Msg: fmt.Sprintf("data %s: bad string index %d", d.name, init.Index)}
				}
				v = l.strAddr[init.Index]
			case obj.InitSym:
				s := resolve(init.Sym)
				if s == nil {
					return &LoadError{Msg: fmt.Sprintf("data %s: unresolved symbol %q", d.name, init.Sym)}
				}
				v = s.addr
			}
			words = append(words, initWord{init.Offset, v})
		}
		if !slices.IsSortedFunc(words, byOffset) {
			slices.SortStableFunc(words, byOffset)
		}
		for i, w := range words {
			if i+1 == len(words) || words[i+1].off != w.off {
				b.put(d.addr+int64(w.off), w.val)
			}
		}
	}
	for i, s := range f.Strings {
		for j := 0; j < len(s); j++ {
			b.put(l.strAddr[i]+int64(j), int64(s[j]))
		}
	}
	l.init = b.runs()
	return nil
}

// runBuilder collects nonzero words, put in ascending address order,
// into runs.
type runBuilder struct {
	words []int64
	addr  []int64 // each run's first address
	start []int   // where each run's words begin in words
	next  int64   // the address after the last word put
}

func (b *runBuilder) put(addr, v int64) {
	if v == 0 {
		return
	}
	if len(b.addr) == 0 || addr != b.next {
		b.addr = append(b.addr, addr)
		b.start = append(b.start, len(b.words))
	}
	b.words = append(b.words, v)
	b.next = addr + 1
}

func (b *runBuilder) runs() []dataRun {
	runs := make([]dataRun, len(b.addr))
	for i := range runs {
		end := len(b.words)
		if i+1 < len(runs) {
			end = b.start[i+1]
		}
		runs[i] = dataRun{addr: b.addr[i], words: b.words[b.start[i]:end:end]}
	}
	return runs
}

// writeInit makes mem[lo:hi] the layout's initial data for those
// addresses: the runs' words, and zero between them.
func (l *layout) writeInit(mem []int64, lo, hi int64) {
	runs := l.init
	i := sort.Search(len(runs), func(i int) bool { return runs[i].addr+int64(len(runs[i].words)) > lo })
	at := lo
	for ; i < len(runs) && runs[i].addr < hi; i++ {
		r := runs[i]
		from, to := max(r.addr, lo), min(r.addr+int64(len(r.words)), hi)
		clear(mem[at:from])
		copy(mem[from:to], r.words[from-r.addr:])
		at = to
	}
	clear(mem[at:hi])
}

// initDiff returns the first address at which mem differs from the
// layout's initial data followed by zeros, and the word the layout has
// there; -1 when it does not differ. mem holds at least every word of
// the runs.
func (l *layout) initDiff(mem []int64) (int, int64) {
	at := 0
	for _, r := range l.init {
		if i := firstNonzero(mem[at:r.addr]); i >= 0 {
			return at + i, 0
		}
		for j, w := range r.words {
			if mem[int(r.addr)+j] != w {
				return int(r.addr) + j, w
			}
		}
		at = int(r.addr) + len(r.words)
	}
	if i := firstNonzero(mem[at:]); i >= 0 {
		return at + i, 0
	}
	return -1, 0
}

// firstNonzero returns the index of the first nonzero word of mem, or -1.
func firstNonzero(mem []int64) int {
	i := 0
	// Eight words a step, as liveLen reads: the stack's zeros are most of
	// a machine's memory.
	for ; i+8 <= len(mem); i += 8 {
		if mem[i]|mem[i+1]|mem[i+2]|mem[i+3]|mem[i+4]|mem[i+5]|mem[i+6]|mem[i+7] != 0 {
			break
		}
	}
	for ; i < len(mem); i++ {
		if mem[i] != 0 {
			return i
		}
	}
	return -1
}

// Builtin is a host-provided function callable from simulated code, used
// to model devices (console, NIC) and measurement hooks.
type Builtin func(m *M, args []int64) (int64, error)

// TrapKind classifies runtime errors so callers can react structurally
// (retry, rollback, report) instead of parsing messages.
type TrapKind int

// Trap kinds.
const (
	TrapGeneric TrapKind = iota
	// TrapBudgetExhausted: the machine's fuel/step budget ran out — a
	// runaway component was stopped instead of hanging the host.
	TrapBudgetExhausted
	// TrapBadAddress: load or store outside mapped memory (including the
	// NULL guard page).
	TrapBadAddress
	// TrapUnresolvedSymbol: address taken of (or indirect call to) a
	// symbol with no definition.
	TrapUnresolvedSymbol
	// TrapBadStringIndex: a string-literal index outside the image table.
	TrapBadStringIndex
	// TrapStackOverflow: call depth or simulated stack exhausted.
	TrapStackOverflow
	// TrapUndefinedCall: direct call to a function that is neither
	// defined nor a registered builtin.
	TrapUndefinedCall
	// TrapInjected: a fault injected by a test or supervision harness
	// (see internal/knit/build/faultinject) — never produced by real
	// simulated code.
	TrapInjected

	// numTrapKinds must stay last: it sizes the name table, and the
	// exhaustiveness test walks [0, numTrapKinds).
	numTrapKinds
)

// NumTrapKinds is the number of defined trap kinds. Per-kind tables
// (e.g. the observability layer's trap counters) size themselves with
// it so adding a kind without extending them is a compile- or
// test-time error, not a silent miscount.
const NumTrapKinds = int(numTrapKinds)

// trapKindNames is indexed by TrapKind. Sizing the array with
// numTrapKinds means adding a kind without naming it leaves a hole the
// exhaustiveness test (TestTrapKindStringExhaustive) catches.
var trapKindNames = [numTrapKinds]string{
	TrapGeneric:          "generic",
	TrapBudgetExhausted:  "budget-exhausted",
	TrapBadAddress:       "bad-address",
	TrapUnresolvedSymbol: "unresolved-symbol",
	TrapBadStringIndex:   "bad-string-index",
	TrapStackOverflow:    "stack-overflow",
	TrapUndefinedCall:    "undefined-call",
	TrapInjected:         "injected",
}

// String names the trap kind for reports and logs.
func (k TrapKind) String() string {
	if k >= 0 && k < numTrapKinds && trapKindNames[k] != "" {
		return trapKindNames[k]
	}
	return fmt.Sprintf("TrapKind(%d)", int(k))
}

// Trap is a runtime error in simulated code. Unit, when known, names the
// unit instance owning the faulting function (mapped back through the
// link-time symbol owner table), so a crash is attributed to a component
// rather than to an anonymous renamed symbol.
type Trap struct {
	Kind TrapKind
	Msg  string
	Func string
	Unit string
	PC   int
}

func (t *Trap) Error() string {
	if t.Unit != "" {
		return fmt.Sprintf("machine trap in %s (unit %s) at pc=%d: %s", t.Func, t.Unit, t.PC, t.Msg)
	}
	return fmt.Sprintf("machine trap in %s at pc=%d: %s", t.Func, t.PC, t.Msg)
}

// M is a running machine instance.
type M struct {
	Img      *Image
	Mem      []int64
	Costs    Costs
	Builtins map[string]Builtin

	// Statistics.
	Cycles     int64 // total cycles including stalls
	Stalls     int64 // instruction-fetch stall cycles (subset of Cycles)
	Executed   int64 // instructions executed
	Calls      int64 // direct calls executed
	IndCalls   int64 // indirect calls executed
	BuiltinCnt int64
	ICacheRefs int64
	ICacheMiss int64

	// StepLimit bounds the instructions a single top-level Run may
	// execute before trapping with TrapBudgetExhausted ("step limit
	// exceeded"), so runaway programs stop (0 means a large default,
	// 1<<32). It is re-armed at every Run, so a long-lived machine never
	// outgrows it.
	StepLimit int64
	// Fuel, when positive, is a tighter per-Run budget: a top-level Run
	// may execute min(Fuel, StepLimit) instructions, so one buggy
	// component's infinite loop becomes a reported trap without starving
	// later, well-behaved calls.
	Fuel int64
	// PreRun, when non-nil, is consulted at every top-level Run entry
	// with the entry symbol; a non-nil error aborts the run before any
	// simulated code executes. It exists for deterministic fault
	// injection (see internal/knit/build/faultinject) and must not be
	// relied on for program semantics.
	PreRun func(entry string) error
	// PreCall, when non-nil, is consulted before every simulated
	// function-body entry (direct, indirect, and Run entries alike) with
	// the function's program-unique name; a non-nil error aborts the call
	// with that error. Like PreRun it exists for deterministic fault
	// injection — returning a *Trap keeps unit attribution working — and
	// must not carry program semantics. The hook is skipped for builtins.
	PreCall func(fn string) error
	// PostCall, when non-nil, is invoked after every simulated function
	// call completes (direct, indirect, and Run entries alike; builtins
	// are charged to their caller and do not fire it). The observability
	// layer (internal/knit/observe) rides on it to attribute calls,
	// cycles, and traps to unit instances. When nil the cost is a single
	// predictable branch per call; the hook must not run simulated code
	// on m.
	PostCall func(CallInfo)

	sp         int64
	stackLimit int64   // frames may not grow past this (dynamic data follows)
	icache     []int64 // tag per line; -1 empty
	prevLine   int64
	depth      int
	budgetEnd  int64             // absolute Executed bound for the current Run
	fuelBound  bool              // budgetEnd comes from Fuel, not StepLimit
	dyn        *dynState         // dynamically loaded modules (nil until used)
	redirect   map[string]string // interposed function symbols (nil until used)
	// regStack and argStack are per-call pools: every frame's virtual
	// registers, and every builtin call's argument vector, are slices of
	// these LIFO arenas rather than fresh allocations, so the no-fault
	// call path performs zero heap allocations. MaxCallDepth bounds their
	// growth; stale backing arrays left behind by a mid-call grow are
	// harmless because each frame only ever touches its own slice.
	regStack []int64
	regTop   int
	argStack []int64
	argTop   int

	// serial identifies the machine, so Restore can tell a snapshot
	// taken here from one taken on another machine. nextIndex is the
	// index the next dynamically loaded function draws; nothing rewinds
	// it, so no index is reused on this machine.
	serial    uint64
	nextIndex int

	// Compiled-backend state (see compile_backend.go). backend selects
	// the execution engine. sites is the per-machine dispatch cache the
	// compiled code resolves call sites through; a cached target is only
	// trusted while its version matches dispVersion, which is bumped
	// whenever the name→code mapping can change (interpose/unpose,
	// dynamic load/unload, restore, reset, builtin registration), so no
	// call site ever follows a stale redirect. A dynamic function's record
	// holds this machine's compilation of it; nextSite allocates their
	// dispatch-cache slots past the static program's.
	backend     Backend
	sites       []callSite
	nextSite    int
	dispVersion uint64
}

// CallInfo describes one completed simulated function call, as passed
// to the PostCall hook. It carries no pointers into the machine, so a
// hook may retain it freely.
type CallInfo struct {
	Fn    string // program-unique (renamed) function name
	Depth int    // nesting depth at entry: 0 for a top-level Run
	Start int64  // M.Cycles when the call began
	// Index is the function's dense index on this machine: static
	// functions are 0…n−1 in text order, and each dynamically loaded
	// function draws the next number when its module loads. An index
	// names one function for the machine's whole life — UnloadDynamic,
	// Restore and Reset never hand it to another, and a Restore brings a
	// function back under its old index — and both engines report the
	// same index, so a hook may key per-function state by it.
	Index int
	// Cycles is the cycles-of-fuel the call consumed, callees included
	// (an exclusive figure is Cycles minus the callees' CallInfo.Cycles,
	// which nest strictly inside this one).
	Cycles int64
	// Err is the call's error. A trap propagates unchanged through every
	// enclosing frame, so the innermost erroring CallInfo is the first
	// one carrying a given error value.
	Err error
}

// MaxCallDepth bounds simulated recursion.
const MaxCallDepth = 256

// machineSerial numbers machines as they are created (see M.serial).
var machineSerial atomic.Uint64

// buffers are a released machine's allocations, kept for the next New.
type buffers struct {
	mem, icache, regStack, argStack []int64
}

// released holds the buffers of released machines (see Release).
var released sync.Pool

// New creates a machine for a loaded image, on the memory, I-cache tags
// and frame arenas of a released machine when there is one.
func New(img *Image) *M {
	m := &M{}
	if b, ok := released.Get().(*buffers); ok {
		m.Mem, m.icache, m.regStack, m.argStack = b.mem, b.icache, b.regStack, b.argStack
	}
	m.Img = img
	m.Costs = img.costs
	m.Builtins = map[string]Builtin{}
	m.serial = machineSerial.Add(1)
	m.nextIndex = len(img.funcs)
	m.Reset()
	return m
}

// Release gives the machine's memory, I-cache tags and frame arenas to a
// later New and empties m. Call it only for a machine that will not run
// again: m keeps neither image nor memory, so a later Run panics rather
// than touch memory another machine may own. Snapshots taken of m stay
// valid.
func (m *M) Release() {
	if m.Mem != nil {
		released.Put(&buffers{m.Mem, m.icache, m.regStack, m.argStack})
	}
	*m = M{}
}

// memRound is the granule, in words, a memory buffer's capacity is
// rounded up to, so that a released buffer also serves an image with a
// somewhat larger data segment.
const memRound = 1 << 13

// Reset restores memory and statistics to the initial image state.
// Memory is rewritten in place when the machine's buffer can hold the
// image's data segment and stack.
func (m *M) Reset() {
	data := int64(m.Img.DataWords)
	if need := int(data) + stackWords; cap(m.Mem) < need {
		m.Mem = make([]int64, need, (need+memRound-1)/memRound*memRound)
	} else {
		m.Mem = m.Mem[:need]
		clear(m.Mem[data:])
	}
	m.Img.writeInit(m.Mem, 0, data)
	m.sp = data
	m.stackLimit = int64(len(m.Mem))
	m.Cycles, m.Stalls, m.Executed = 0, 0, 0
	m.Calls, m.IndCalls, m.BuiltinCnt = 0, 0, 0
	m.ICacheRefs, m.ICacheMiss = 0, 0
	if m.Costs.ICacheBytes > 0 && m.Costs.ICacheLine > 0 {
		if lines := m.Costs.ICacheBytes / m.Costs.ICacheLine; cap(m.icache) < lines {
			m.icache = make([]int64, lines)
		} else {
			m.icache = m.icache[:lines]
		}
		for i := range m.icache {
			m.icache[i] = -1
		}
	} else {
		m.icache = nil
	}
	m.prevLine = -100
	m.dyn = nil // dynamic modules do not survive a reset
	m.redirect = nil
	m.depth = 0
	m.budgetEnd = 0
	m.regTop, m.argTop = 0, 0 // arenas keep their capacity across resets
	m.sites = nil
	m.nextSite = 0
	m.dispVersion++ // fresh caches start invalid (slot version 0 < 1)
}

// StackLimit is the word just past the stack region: frames never grow
// past it, and dynamically loaded modules' data starts there.
func (m *M) StackLimit() int64 { return m.stackLimit }

// RegisterBuiltin installs a host function under the given symbol name.
func (m *M) RegisterBuiltin(name string, fn Builtin) {
	m.Builtins[name] = fn
	m.dispVersion++ // an undefined-call site may now resolve to the builtin
}

// Run calls the named function with the given arguments and returns its
// result. At the top level (not from within simulated code) it re-arms
// the instruction budget and, on a trap, attributes the fault to the
// owning unit instance via the link-time symbol owner table.
func (m *M) Run(entry string, args ...int64) (int64, error) {
	if m.depth == 0 && m.PreRun != nil {
		if err := m.PreRun(entry); err != nil {
			return 0, err
		}
	}
	entry = m.interposed(entry)
	s := m.lookup(entry)
	if s == nil || s.fn == nil {
		return 0, &LoadError{Msg: fmt.Sprintf("entry function %q not defined", entry)}
	}
	if m.depth == 0 {
		m.armBudget()
	}
	v, err := m.call(s, args, runArgRegs(len(args)))
	if t, ok := err.(*Trap); ok && t.Unit == "" {
		t.Unit = m.OwnerOf(t.Func)
	}
	return v, err
}

// selfRegs lists registers 0, 1, 2, …: Run hands its argument vector to
// frame as the registers of a caller whose argument list is 0…n−1.
var selfRegs = [...]obj.Reg{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// runArgRegs returns the argument list 0…n−1, allocating only for a Run
// with more arguments than selfRegs lists.
func runArgRegs(n int) []obj.Reg {
	if n <= len(selfRegs) {
		return selfRegs[:n:n]
	}
	r := make([]obj.Reg, n)
	for i := range r {
		r[i] = obj.Reg(i)
	}
	return r
}

// defaultStepLimit is the per-Run instruction bound when StepLimit is 0.
const defaultStepLimit = 1 << 32

// armBudget sets the one instruction bound a top-level Run executes
// under: Executed plus the tighter of Fuel (when positive) and
// StepLimit, saturating at MaxInt64.
func (m *M) armBudget() {
	n := m.StepLimit
	if n == 0 {
		n = defaultStepLimit
	}
	m.fuelBound = m.Fuel > 0 && m.Fuel < n
	if m.fuelBound {
		n = m.Fuel
	}
	if n > math.MaxInt64-m.Executed {
		m.budgetEnd = math.MaxInt64
	} else {
		m.budgetEnd = m.Executed + n
	}
}

// OwnerOf maps a (renamed, program-unique) function or data symbol back
// to the unit instance that owns it, consulting the image's link-time
// symbol table and then the live dynamic module that defines it. Empty
// when unknown.
func (m *M) OwnerOf(sym string) string {
	if owner, ok := m.Img.SymbolOwner[sym]; ok {
		return owner
	}
	if s := m.lookup(sym); s != nil && s.mod != nil {
		return s.mod.owner
	}
	return ""
}

// lookup returns the record defining name: the image's, else a live
// dynamic module's. It does not follow interposition redirects.
func (m *M) lookup(name string) *symbol {
	if s := m.Img.syms[name]; s != nil {
		return s
	}
	if m.dyn != nil {
		return m.dyn.syms[name]
	}
	return nil
}

// lookupAddr returns the record of the function whose code starts at
// addr, or nil when no live function does.
func (m *M) lookupAddr(addr int64) *symbol {
	funcs := m.Img.funcs
	i := sort.Search(len(funcs), func(i int) bool { return funcs[i].addr >= addr })
	if i < len(funcs) && funcs[i].addr == addr {
		return funcs[i]
	}
	if m.dyn != nil {
		for _, mod := range m.dyn.modules {
			for _, s := range mod.syms {
				if s.fn != nil && s.addr == addr {
					return s
				}
			}
		}
	}
	return nil
}

// fetch models the instruction fetch of one instruction at the given
// text byte offset.
func (m *M) fetch(textOff int64) {
	if m.icache == nil {
		return
	}
	m.ICacheRefs++
	line := textOff / int64(m.Costs.ICacheLine)
	idx := line % int64(len(m.icache))
	if m.icache[idx] != line {
		m.icache[idx] = line
		m.ICacheMiss++
		penalty := m.Costs.ICacheMiss
		if line == m.prevLine+1 {
			penalty = m.Costs.ICacheSeqMiss
		}
		m.Stalls += penalty
		m.Cycles += penalty
	}
	m.prevLine = line
}

// call runs the body of the function s on the machine's engine. Its
// arguments are src[argRegs[0]], src[argRegs[1]], …: the caller's
// registers for a call from simulated code, Run's vector for a Run.
func (m *M) call(s *symbol, src []int64, argRegs []obj.Reg) (int64, error) {
	if m.backend == BackendCompiled {
		return m.invoke(s, m.compiledFor(s), src, argRegs)
	}
	return m.invoke(s, nil, src, argRegs)
}

// invoke runs the body of the function s in a new frame — as cf when cf
// is non-nil — firing the PostCall hook (when installed) with the call's
// function index, frame identity, fuel delta, and outcome. The disabled
// path is a single nil check so that detached observability costs
// nothing measurable. The index is read from the record the frame holds,
// which stays valid even if the call unloads its own module.
func (m *M) invoke(s *symbol, cf *cfunc, src []int64, argRegs []obj.Reg) (int64, error) {
	if m.PostCall == nil {
		return m.frame(s, cf, src, argRegs)
	}
	depth := m.depth
	start := m.Cycles
	v, err := m.frame(s, cf, src, argRegs)
	m.PostCall(CallInfo{Fn: s.name, Index: s.index, Depth: depth, Start: start, Cycles: m.Cycles - start, Err: err})
	return v, err
}

// growArena extends a frame arena to at least need words. Growth
// abandons the old backing array; live parent frames keep their slices
// of it, which stays correct because a frame is the only reader and
// writer of its own registers.
func growArena(s []int64, need int) []int64 {
	n := 2 * need
	if n < 256 {
		n = 256
	}
	ns := make([]int64, n)
	copy(ns, s)
	return ns
}

// frame is the one frame prologue of both engines: it checks call depth,
// fires PreCall, checks the argument count and the simulated stack,
// takes the frame's registers from the arena — copying each argument
// once, from src[argRegs[i]] straight into register i — and its words
// from the simulated stack, then runs the body, compiled when cf is
// non-nil, else on the interpreter. Every check precedes the first
// change to machine state, so the one exit path after the body is the
// only place depth, register top and stack pointer are restored.
func (m *M) frame(s *symbol, cf *cfunc, src []int64, argRegs []obj.Reg) (int64, error) {
	fn := s.fn
	if m.depth >= MaxCallDepth {
		return 0, &Trap{Kind: TrapStackOverflow, Msg: "call stack overflow", Func: fn.Name}
	}
	if m.PreCall != nil {
		if err := m.PreCall(fn.Name); err != nil {
			return 0, err
		}
	}
	if len(argRegs) != fn.NArgs {
		return 0, &Trap{Msg: fmt.Sprintf("called with %d args, want %d", len(argRegs), fn.NArgs), Func: fn.Name}
	}
	rbase, fp := m.regTop, m.sp
	if fp+int64(fn.Frame) > m.stackLimit {
		return 0, &Trap{Kind: TrapStackOverflow, Msg: "simulated stack overflow", Func: fn.Name}
	}

	// The frame's virtual registers come from the LIFO register arena:
	// no per-call allocation, at the price of explicit zeroing (the
	// arena holds stale values from earlier frames). A grow leaves the
	// caller's registers (src) in the old backing array, where the copy
	// below still reads them.
	rtop := rbase + fn.NRegs
	if rtop > len(m.regStack) {
		m.regStack = growArena(m.regStack, rtop)
	}
	regs := m.regStack[rbase:rtop:rtop]
	for i, r := range argRegs {
		regs[i] = src[r]
	}
	clear(regs[len(argRegs):])
	m.depth++
	m.regTop = rtop
	// Frame memory must start zeroed for deterministic behaviour.
	m.sp = fp + int64(fn.Frame)
	clear(m.Mem[fp:m.sp])

	var v int64
	var err error
	if cf != nil {
		v, err = m.runCompiled(cf, regs, fp)
	} else {
		v, err = m.execLoop(s, regs, fp, 0, true)
	}
	m.depth--
	m.regTop, m.sp = rbase, fp
	return v, err
}

// execLoop is the interpreter proper: it executes the body of the
// function s over an already-established frame (registers, frame
// pointer, stack), starting at pc. With model=false the
// instruction-fetch model is skipped — Stalls stay untouched and Cycles
// count only execution — which is the cost semantics of the compiled
// backend; it uses this mode to finish a frame exactly, instruction by
// instruction, when a step or fuel limit is close enough that bulk
// accounting could overshoot the trap point.
func (m *M) execLoop(s *symbol, regs []int64, fp int64, pc int, model bool) (int64, error) {
	fn := s.fn
	var textOff, ib int64
	if model {
		textOff, ib = s.addr-textBase, int64(m.Costs.InstrBytes)
	}
	for {
		if pc < 0 || pc >= len(fn.Code) {
			return 0, &Trap{Msg: "pc out of range", Func: fn.Name, PC: pc}
		}
		if m.Executed >= m.budgetEnd {
			msg := "step limit exceeded"
			if m.fuelBound {
				msg = fmt.Sprintf("fuel budget of %d instructions exhausted", m.Fuel)
			}
			return 0, &Trap{Kind: TrapBudgetExhausted, Msg: msg, Func: fn.Name, PC: pc}
		}
		in := &fn.Code[pc]
		m.Executed++
		m.Cycles += m.Costs.Instr
		if model {
			m.fetch(textOff + int64(pc)*ib)
		}

		switch in.Op {
		case obj.OpConst:
			regs[in.Dst] = in.Imm
		case obj.OpMov:
			regs[in.Dst] = regs[in.A]
		case obj.OpBin:
			v, err := obj.EvalBin(cmini.Tok(in.Tok), regs[in.A], regs[in.B])
			if err != nil {
				return 0, &Trap{Msg: err.Error(), Func: fn.Name, PC: pc}
			}
			regs[in.Dst] = v
		case obj.OpUn:
			v, err := obj.EvalUn(cmini.Tok(in.Tok), regs[in.A])
			if err != nil {
				return 0, &Trap{Msg: err.Error(), Func: fn.Name, PC: pc}
			}
			regs[in.Dst] = v
		case obj.OpLoad:
			v, err := m.load(regs[in.A], fn, pc)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case obj.OpStore:
			if err := m.store(regs[in.A], regs[in.B], fn, pc); err != nil {
				return 0, err
			}
		case obj.OpAddrGlobal:
			if a, ok := m.resolveAddr(in.Sym); ok {
				regs[in.Dst] = a
			} else {
				return 0, &Trap{Kind: TrapUnresolvedSymbol, Msg: "unresolved symbol " + in.Sym, Func: fn.Name, PC: pc}
			}
		case obj.OpAddrLocal:
			regs[in.Dst] = fp + in.Imm
		case obj.OpAddrString:
			// A string's address is in the string table of the layout
			// the function was placed in, the image's or its module's.
			strs := m.Img.layoutOf(s).strAddr
			if in.Imm < 0 || in.Imm >= int64(len(strs)) {
				return 0, &Trap{Kind: TrapBadStringIndex, Msg: "bad string literal index", Func: fn.Name, PC: pc}
			}
			regs[in.Dst] = strs[in.Imm]
		case obj.OpCall:
			v, err := m.dispatch(in.Sym, regs, in.Args, fn, pc)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case obj.OpCallInd:
			target := regs[in.A]
			callee := m.lookupAddr(target)
			if callee == nil {
				return 0, &Trap{Kind: TrapUnresolvedSymbol, Msg: fmt.Sprintf("indirect call to non-function address %#x", target), Func: fn.Name, PC: pc}
			}
			m.IndCalls++
			m.Cycles += m.Costs.CallBase + m.Costs.Indirect +
				m.Costs.CallPerArg*int64(len(in.Args))
			v, err := m.call(callee, regs, in.Args)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case obj.OpJump:
			pc = in.Targets[0]
			continue
		case obj.OpBranch:
			if regs[in.A] != 0 {
				pc = in.Targets[0]
			} else {
				pc = in.Targets[1]
			}
			continue
		case obj.OpRet:
			if in.HasVal {
				return regs[in.A], nil
			}
			return 0, nil
		default:
			return 0, &Trap{Msg: "bad opcode", Func: fn.Name, PC: pc}
		}
		pc++
	}
}

// dispatch performs a direct call: to a defined function, or to a
// registered builtin when the symbol has no definition. Interposed
// symbols (see Interpose) are redirected before lookup, so a supervisor
// can reroute every direct call into a component without touching its
// callers.
func (m *M) dispatch(sym string, regs []int64, argRegs []obj.Reg, fn *obj.Func, pc int) (int64, error) {
	sym = m.interposed(sym)
	if callee := m.lookup(sym); callee != nil && callee.fn != nil {
		m.Calls++
		m.Cycles += m.Costs.CallBase + m.Costs.CallPerArg*int64(len(argRegs))
		return m.call(callee, regs, argRegs)
	}
	if b, ok := m.Builtins[sym]; ok {
		m.BuiltinCnt++
		m.Cycles += m.Costs.Builtin
		return m.callBuiltin(b, regs, argRegs, fn.Name, pc)
	}
	return 0, &Trap{Kind: TrapUndefinedCall, Msg: "call to undefined function " + sym, Func: fn.Name, PC: pc}
}

// callBuiltin calls a builtin with an argument vector gathered from the
// caller's registers into the LIFO argument arena, which keeps the
// builtin path allocation-free like the register arena keeps simulated
// calls; a builtin must not retain its argument slice past its own
// return. A *Trap the builtin returns without a Func is stamped with
// the calling function and pc, so a device's refusal is attributed
// like any other trap.
func (m *M) callBuiltin(b Builtin, regs []int64, argRegs []obj.Reg, caller string, pc int) (int64, error) {
	base := m.argTop
	top := base + len(argRegs)
	if top > len(m.argStack) {
		m.argStack = growArena(m.argStack, top)
	}
	argv := m.argStack[base:top:top]
	for i, r := range argRegs {
		argv[i] = regs[r]
	}
	m.argTop = top
	v, err := b(m, argv)
	m.argTop = base
	if t, ok := err.(*Trap); ok && t.Func == "" {
		t.Func, t.PC = caller, pc
	}
	return v, err
}

func (m *M) load(addr int64, fn *obj.Func, pc int) (int64, error) {
	if addr < nullGuard || addr >= int64(len(m.Mem)) {
		return 0, &Trap{Kind: TrapBadAddress, Msg: fmt.Sprintf("load from invalid address %d", addr), Func: fn.Name, PC: pc}
	}
	return m.Mem[addr], nil
}

func (m *M) store(addr, val int64, fn *obj.Func, pc int) error {
	if addr < nullGuard || addr >= int64(len(m.Mem)) {
		return &Trap{Kind: TrapBadAddress, Msg: fmt.Sprintf("store to invalid address %d", addr), Func: fn.Name, PC: pc}
	}
	m.Mem[addr] = val
	return nil
}

// ReadCString reads a NUL-terminated string from simulated memory.
func (m *M) ReadCString(addr int64) (string, error) {
	var b []byte
	for {
		if addr < nullGuard || addr >= int64(len(m.Mem)) {
			return "", fmt.Errorf("machine: string read out of range at %d", addr)
		}
		c := m.Mem[addr]
		if c == 0 {
			return string(b), nil
		}
		b = append(b, byte(c))
		addr++
	}
}

// WriteWords copies words into simulated memory.
func (m *M) WriteWords(addr int64, words []int64) error {
	if addr < nullGuard || addr+int64(len(words)) > int64(len(m.Mem)) {
		return fmt.Errorf("machine: write out of range at %d", addr)
	}
	copy(m.Mem[addr:], words)
	return nil
}
