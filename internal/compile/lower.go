package compile

import (
	"fmt"
	"slices"
	"sync"

	"knit/internal/cmini"
	"knit/internal/diag"
	"knit/internal/obj"
)

// Options controls compilation.
type Options struct {
	// Opt enables the optimizer: constant folding, local common
	// subexpression elimination, dead-code elimination, and intra-file
	// inlining. This is the "-O" the paper's flattening experiment relies
	// on: optimization never crosses file boundaries, so merging unit
	// sources into one file is what unlocks cross-component inlining.
	Opt bool
	// InlineLimit is the maximum callee size, in IR instructions, that
	// the inliner will inline. Zero means the default; negative disables
	// inlining entirely.
	InlineLimit int
	// GrowthLimit caps a function's size, in IR instructions, after
	// inlining. Zero means the default.
	GrowthLimit int
	// DisableCSE turns off value numbering (constant folding + common
	// subexpression elimination), for ablation studies.
	DisableCSE bool
}

// Default optimizer limits.
const (
	DefaultInlineLimit = 96
	DefaultGrowthLimit = 4096
)

// outputVersion numbers the compiler's output for Key. Bump it whenever
// the same source and options start compiling to a different object, so
// caches persisted by an older compiler miss instead of serving stale
// objects. Version 2 renumbers registers by liveness.
const outputVersion = 2

// Key returns a canonical fingerprint of the compiler version and the
// options that affect generated code, for content-addressed build
// caches: two Options with the same Key compile any given file to the
// same object. Unset limits normalize to their defaults, and options
// the optimizer ignores when Opt is off do not contribute.
func (o Options) Key() string {
	v := fmt.Sprintf("v%d ", outputVersion)
	if !o.Opt {
		return v + "O0"
	}
	il := o.InlineLimit
	if il == 0 {
		il = DefaultInlineLimit
	}
	gl := o.GrowthLimit
	if gl == 0 {
		gl = DefaultGrowthLimit
	}
	if il < 0 {
		il, gl = -1, 0 // every negative limit means "inlining off"
	}
	return v + fmt.Sprintf("O1 inline=%d growth=%d cse=%t", il, gl, !o.DisableCSE)
}

// Compile translates one cmini file into an object file: lower, then
// optimize when opts.Opt is set, then renumber every function's
// registers.
func Compile(f *cmini.File, opts Options) (*obj.File, error) {
	out, err := lower(f)
	if err != nil {
		return nil, err
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if opts.Opt {
		s.optimize(out, opts)
	}
	for _, fn := range out.Funcs {
		s.renumber(fn)
	}
	return out, nil
}

// lower translates f into unoptimized IR with one virtual register per
// temporary and in-register local.
func lower(f *cmini.File) (*obj.File, error) {
	structs, err := layouts(f)
	if err != nil {
		return nil, err
	}
	buf := codePool.Get().(*[]obj.Instr)
	c := &compiler{
		file:    f,
		out:     obj.NewFile(f.Name),
		structs: structs,
		globals: map[string]*globalInfo{},
		code:    *buf,
	}
	defer func() {
		clear(c.code[:c.used]) // let go of the functions' symbols and argument lists
		*buf = c.code[:0]
		codePool.Put(buf)
	}()
	if err := c.collectGlobals(); err != nil {
		return nil, err
	}
	order := 0
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *cmini.VarDecl:
			if err := c.emitVar(d); err != nil {
				return nil, err
			}
		case *cmini.FuncDecl:
			if err := c.emitFunc(d, order); err != nil {
				return nil, err
			}
			if d.Body != nil {
				order++
			}
		}
	}
	return c.out, nil
}

// globalInfo describes one file-scope name.
type globalInfo struct {
	isFunc bool
	typ    cmini.Type // variable type, or function result type
	params []cmini.Param
	extern bool
	static bool
}

type compiler struct {
	file    *cmini.File
	out     *obj.File
	structs map[string]*structLayout
	globals map[string]*globalInfo
	// code is the buffer the file's functions are lowered into, one
	// after another, and used the most of it any function did. Each
	// function keeps a copy of exactly its code.
	code []obj.Instr
	used int
}

// codePool keeps the buffers files are lowered into, and the capacity
// they have grown, for the next file.
var codePool = sync.Pool{New: func() any { return new([]obj.Instr) }}

func (c *compiler) collectGlobals() error {
	for _, d := range c.file.Decls {
		switch d := d.(type) {
		case *cmini.VarDecl:
			if prev, ok := c.globals[d.Name]; ok {
				if !prev.extern && !d.Extern {
					return diag.Errorf(d.Pos, "global %q redefined", d.Name)
				}
			}
			c.globals[d.Name] = &globalInfo{typ: d.Type, extern: d.Extern, static: d.Static}
		case *cmini.FuncDecl:
			if prev, ok := c.globals[d.Name]; ok {
				if prev.isFunc && !prev.extern && d.Body != nil {
					return diag.Errorf(d.Pos, "function %q redefined", d.Name)
				}
				if !prev.isFunc {
					return diag.Errorf(d.Pos, "%q declared as both variable and function", d.Name)
				}
			}
			gi := &globalInfo{isFunc: true, typ: d.Result, params: d.Params,
				extern: d.Body == nil, static: d.Static}
			if old, ok := c.globals[d.Name]; !ok || old.extern {
				c.globals[d.Name] = gi
			}
		}
	}
	return nil
}

func (c *compiler) emitVar(d *cmini.VarDecl) error {
	if d.Extern {
		c.out.AddSym(&obj.Symbol{Name: d.Name, Kind: obj.SymData})
		return nil
	}
	size, err := typeSize(d.Type, c.structs)
	if err != nil {
		return diag.Errorf(d.Pos, "variable %s: %v", d.Name, err)
	}
	data := &obj.Data{Name: d.Name, Size: size, Local: d.Static}
	if d.Init != nil {
		init, err := c.constInit(d.Init)
		if err != nil {
			return err
		}
		data.Init = []obj.DataInit{init}
	}
	c.out.Datas[d.Name] = data
	c.out.AddSym(&obj.Symbol{Name: d.Name, Kind: obj.SymData, Defined: true, Local: d.Static})
	return nil
}

// constInit evaluates a global initializer: a constant integer
// expression, a string literal, or &function / &global.
func (c *compiler) constInit(e cmini.Expr) (obj.DataInit, error) {
	switch e := e.(type) {
	case *cmini.StrLit:
		idx := c.internString(e.Val)
		return obj.DataInit{Kind: obj.InitString, Index: idx}, nil
	case *cmini.Unary:
		if e.Op == cmini.AMP {
			if id, ok := e.X.(*cmini.Ident); ok {
				return obj.DataInit{Kind: obj.InitSym, Sym: id.Name}, nil
			}
		}
	case *cmini.Ident:
		if gi, ok := c.globals[e.Name]; ok && gi.isFunc {
			return obj.DataInit{Kind: obj.InitSym, Sym: e.Name}, nil
		}
	}
	v, err := c.constEval(e)
	if err != nil {
		return obj.DataInit{}, err
	}
	return obj.DataInit{Kind: obj.InitConst, Val: v}, nil
}

func (c *compiler) constEval(e cmini.Expr) (int64, error) {
	switch e := e.(type) {
	case *cmini.IntLit:
		return e.Val, nil
	case *cmini.Unary:
		v, err := c.constEval(e.X)
		if err != nil {
			return 0, err
		}
		return obj.EvalUn(e.Op, v)
	case *cmini.Binary:
		a, err := c.constEval(e.X)
		if err != nil {
			return 0, err
		}
		b, err := c.constEval(e.Y)
		if err != nil {
			return 0, err
		}
		return obj.EvalBin(e.Op, a, b)
	case *cmini.SizeofExpr:
		sz, err := typeSize(e.Type, c.structs)
		if err != nil {
			return 0, diag.Errorf(e.Pos, "sizeof: %v", err)
		}
		return int64(sz), nil
	}
	return 0, diag.Errorf(e.ExprPos(), "global initializer must be a constant expression")
}

func (c *compiler) internString(s string) int {
	for i, have := range c.out.Strings {
		if have == s {
			return i
		}
	}
	c.out.Strings = append(c.out.Strings, s)
	return len(c.out.Strings) - 1
}

func (c *compiler) emitFunc(d *cmini.FuncDecl, order int) error {
	if d.Body == nil {
		c.out.AddSym(&obj.Symbol{Name: d.Name, Kind: obj.SymFunc, Local: d.Static})
		return nil
	}
	fc := &funcCompiler{
		compiler: c,
		decl:     d,
		fn:       &obj.Func{Name: d.Name, NArgs: len(d.Params), Order: order, Code: c.code[:0]},
		locals:   map[string][]*localInfo{},
	}
	addrTaken := map[string]bool{}
	findAddrTaken(d.Body, addrTaken)
	fc.addrTaken = addrTaken
	for _, p := range d.Params {
		if isAggregate(p.Type) {
			return diag.Errorf(d.Pos, "parameter %q: aggregates must be passed by pointer", p.Name)
		}
		reg := fc.newReg()
		fc.pushLocal(p.Name, &localInfo{inReg: !addrTaken[p.Name], reg: reg, typ: p.Type})
	}
	// Address-taken parameters are spilled to the frame on entry.
	for i, p := range d.Params {
		if addrTaken[p.Name] {
			li := fc.lookupLocal(p.Name)
			li.frameOff = fc.fn.Frame
			fc.fn.Frame++
			addr := fc.emitAddrLocal(li.frameOff)
			fc.emit(obj.Instr{Op: obj.OpStore, A: addr, B: obj.Reg(i)})
		}
	}
	if err := fc.block(d.Body, true); err != nil {
		return err
	}
	// Implicit return for functions that fall off the end.
	fc.emit(obj.Instr{Op: obj.OpRet, A: obj.NoReg})
	c.code, c.used = fc.fn.Code, max(c.used, len(fc.fn.Code))
	fc.fn.Code = slices.Clone(c.code)
	c.out.Funcs[d.Name] = fc.fn
	c.out.AddSym(&obj.Symbol{Name: d.Name, Kind: obj.SymFunc, Defined: true, Local: d.Static})
	return nil
}

// findAddrTaken records local names whose address is taken with &.
func findAddrTaken(b *cmini.Block, out map[string]bool) {
	var visitExpr func(e cmini.Expr)
	visitExpr = func(e cmini.Expr) {
		switch e := e.(type) {
		case *cmini.Unary:
			if e.Op == cmini.AMP {
				if id, ok := e.X.(*cmini.Ident); ok {
					out[id.Name] = true
				}
			}
			visitExpr(e.X)
		case *cmini.Binary:
			visitExpr(e.X)
			visitExpr(e.Y)
		case *cmini.Assign:
			visitExpr(e.LHS)
			visitExpr(e.RHS)
		case *cmini.IncDec:
			visitExpr(e.X)
		case *cmini.Call:
			visitExpr(e.Fun)
			for _, a := range e.Args {
				visitExpr(a)
			}
		case *cmini.Index:
			visitExpr(e.X)
			visitExpr(e.I)
		case *cmini.Member:
			visitExpr(e.X)
		case *cmini.Cond:
			visitExpr(e.C)
			visitExpr(e.Then)
			visitExpr(e.Else)
		}
	}
	var visitStmt func(s cmini.Stmt)
	visitStmt = func(s cmini.Stmt) {
		switch s := s.(type) {
		case *cmini.Block:
			for _, inner := range s.Stmts {
				visitStmt(inner)
			}
		case *cmini.DeclStmt:
			if s.Init != nil {
				visitExpr(s.Init)
			}
		case *cmini.ExprStmt:
			visitExpr(s.X)
		case *cmini.IfStmt:
			visitExpr(s.Cond)
			visitStmt(s.Then)
			if s.Else != nil {
				visitStmt(s.Else)
			}
		case *cmini.WhileStmt:
			visitExpr(s.Cond)
			visitStmt(s.Body)
		case *cmini.ForStmt:
			if s.Init != nil {
				visitStmt(s.Init)
			}
			if s.Cond != nil {
				visitExpr(s.Cond)
			}
			if s.Post != nil {
				visitExpr(s.Post)
			}
			visitStmt(s.Body)
		case *cmini.ReturnStmt:
			if s.X != nil {
				visitExpr(s.X)
			}
		}
	}
	visitStmt(b)
}

// localInfo is a local variable's storage.
type localInfo struct {
	inReg    bool
	reg      obj.Reg
	frameOff int
	typ      cmini.Type
}

// funcCompiler lowers one function body.
type funcCompiler struct {
	*compiler
	decl      *cmini.FuncDecl
	fn        *obj.Func
	locals    map[string][]*localInfo // name -> shadow stack
	scopes    [][]string              // names declared per open scope
	addrTaken map[string]bool
	breaks    [][]int // patch lists for break targets per loop
	conts     [][]int
}

func (fc *funcCompiler) newReg() obj.Reg {
	r := obj.Reg(fc.fn.NRegs)
	fc.fn.NRegs++
	return r
}

func (fc *funcCompiler) emit(in obj.Instr) int {
	fc.fn.Code = append(fc.fn.Code, in)
	return len(fc.fn.Code) - 1
}

func (fc *funcCompiler) here() int { return len(fc.fn.Code) }

func (fc *funcCompiler) emitConst(v int64) obj.Reg {
	r := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpConst, Dst: r, Imm: v, A: obj.NoReg, B: obj.NoReg})
	return r
}

func (fc *funcCompiler) emitAddrLocal(off int) obj.Reg {
	r := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpAddrLocal, Dst: r, Imm: int64(off), A: obj.NoReg, B: obj.NoReg})
	return r
}

func (fc *funcCompiler) pushLocal(name string, li *localInfo) {
	fc.locals[name] = append(fc.locals[name], li)
	if len(fc.scopes) > 0 {
		top := len(fc.scopes) - 1
		fc.scopes[top] = append(fc.scopes[top], name)
	}
}

func (fc *funcCompiler) lookupLocal(name string) *localInfo {
	stack := fc.locals[name]
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

func (fc *funcCompiler) openScope() { fc.scopes = append(fc.scopes, nil) }

func (fc *funcCompiler) closeScope() {
	top := len(fc.scopes) - 1
	for _, name := range fc.scopes[top] {
		stack := fc.locals[name]
		fc.locals[name] = stack[:len(stack)-1]
	}
	fc.scopes = fc.scopes[:top]
}

func (fc *funcCompiler) block(b *cmini.Block, topLevel bool) error {
	fc.openScope()
	defer fc.closeScope()
	for _, s := range b.Stmts {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fc *funcCompiler) stmt(s cmini.Stmt) error {
	switch s := s.(type) {
	case *cmini.Block:
		return fc.block(s, false)
	case *cmini.DeclStmt:
		return fc.declStmt(s)
	case *cmini.ExprStmt:
		_, _, err := fc.expr(s.X)
		return err
	case *cmini.IfStmt:
		return fc.ifStmt(s)
	case *cmini.WhileStmt:
		return fc.whileStmt(s)
	case *cmini.ForStmt:
		return fc.forStmt(s)
	case *cmini.ReturnStmt:
		if s.X == nil {
			fc.emit(obj.Instr{Op: obj.OpRet, A: obj.NoReg})
			return nil
		}
		r, _, err := fc.expr(s.X)
		if err != nil {
			return err
		}
		fc.emit(obj.Instr{Op: obj.OpRet, A: r, HasVal: true})
		return nil
	case *cmini.BreakStmt:
		if len(fc.breaks) == 0 {
			return diag.Errorf(s.Pos, "break outside loop")
		}
		j := fc.emit(obj.Instr{Op: obj.OpJump})
		top := len(fc.breaks) - 1
		fc.breaks[top] = append(fc.breaks[top], j)
		return nil
	case *cmini.ContinueStmt:
		if len(fc.conts) == 0 {
			return diag.Errorf(s.Pos, "continue outside loop")
		}
		j := fc.emit(obj.Instr{Op: obj.OpJump})
		top := len(fc.conts) - 1
		fc.conts[top] = append(fc.conts[top], j)
		return nil
	}
	return fmt.Errorf("compile: unhandled statement %T", s)
}

func (fc *funcCompiler) declStmt(s *cmini.DeclStmt) error {
	size, err := typeSize(s.Type, fc.structs)
	if err != nil {
		return diag.Errorf(s.Pos, "local %s: %v", s.Name, err)
	}
	li := &localInfo{typ: s.Type}
	if isAggregate(s.Type) || fc.addrTaken[s.Name] {
		li.frameOff = fc.fn.Frame
		fc.fn.Frame += size
	} else {
		li.inReg = true
		li.reg = fc.newReg()
	}
	// Initializer is evaluated before the name becomes visible.
	var initReg obj.Reg = obj.NoReg
	if s.Init != nil {
		if isAggregate(s.Type) {
			return diag.Errorf(s.Pos, "local aggregate %q cannot have an initializer", s.Name)
		}
		r, _, err := fc.expr(s.Init)
		if err != nil {
			return err
		}
		initReg = r
	}
	fc.pushLocal(s.Name, li)
	if initReg != obj.NoReg {
		if li.inReg {
			fc.emit(obj.Instr{Op: obj.OpMov, Dst: li.reg, A: initReg, B: obj.NoReg})
		} else {
			addr := fc.emitAddrLocal(li.frameOff)
			fc.emit(obj.Instr{Op: obj.OpStore, A: addr, B: initReg})
		}
	}
	return nil
}

func (fc *funcCompiler) ifStmt(s *cmini.IfStmt) error {
	cond, _, err := fc.expr(s.Cond)
	if err != nil {
		return err
	}
	br := fc.emit(obj.Instr{Op: obj.OpBranch, A: cond})
	fc.fn.Code[br].Targets[0] = fc.here()
	if err := fc.block(s.Then, false); err != nil {
		return err
	}
	if s.Else == nil {
		fc.fn.Code[br].Targets[1] = fc.here()
		return nil
	}
	jEnd := fc.emit(obj.Instr{Op: obj.OpJump})
	fc.fn.Code[br].Targets[1] = fc.here()
	if err := fc.stmt(s.Else); err != nil {
		return err
	}
	fc.fn.Code[jEnd].Targets[0] = fc.here()
	return nil
}

func (fc *funcCompiler) whileStmt(s *cmini.WhileStmt) error {
	head := fc.here()
	cond, _, err := fc.expr(s.Cond)
	if err != nil {
		return err
	}
	br := fc.emit(obj.Instr{Op: obj.OpBranch, A: cond})
	fc.fn.Code[br].Targets[0] = fc.here()
	fc.breaks = append(fc.breaks, nil)
	fc.conts = append(fc.conts, nil)
	if err := fc.block(s.Body, false); err != nil {
		return err
	}
	back := fc.emit(obj.Instr{Op: obj.OpJump})
	fc.fn.Code[back].Targets[0] = head
	end := fc.here()
	fc.fn.Code[br].Targets[1] = end
	fc.patchLoop(end, head)
	return nil
}

func (fc *funcCompiler) forStmt(s *cmini.ForStmt) error {
	fc.openScope()
	defer fc.closeScope()
	if s.Init != nil {
		if err := fc.stmt(s.Init); err != nil {
			return err
		}
	}
	head := fc.here()
	var br = -1
	if s.Cond != nil {
		cond, _, err := fc.expr(s.Cond)
		if err != nil {
			return err
		}
		br = fc.emit(obj.Instr{Op: obj.OpBranch, A: cond})
		fc.fn.Code[br].Targets[0] = fc.here()
	}
	fc.breaks = append(fc.breaks, nil)
	fc.conts = append(fc.conts, nil)
	if err := fc.block(s.Body, false); err != nil {
		return err
	}
	post := fc.here()
	if s.Post != nil {
		if _, _, err := fc.expr(s.Post); err != nil {
			return err
		}
	}
	back := fc.emit(obj.Instr{Op: obj.OpJump})
	fc.fn.Code[back].Targets[0] = head
	end := fc.here()
	if br >= 0 {
		fc.fn.Code[br].Targets[1] = end
	}
	fc.patchLoop(end, post)
	return nil
}

// patchLoop pops the innermost loop's break/continue patch lists,
// pointing breaks at breakTo and continues at contTo.
func (fc *funcCompiler) patchLoop(breakTo, contTo int) {
	top := len(fc.breaks) - 1
	for _, j := range fc.breaks[top] {
		fc.fn.Code[j].Targets[0] = breakTo
	}
	for _, j := range fc.conts[top] {
		fc.fn.Code[j].Targets[0] = contTo
	}
	fc.breaks = fc.breaks[:top]
	fc.conts = fc.conts[:top]
}
