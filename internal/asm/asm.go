// Package asm implements an assembly language for the simulated
// machine's IR, so Knit units can be implemented in "assembly" as well
// as C (the paper: "Knit can actually work with C, assembly, and object
// code"). Assembly-backed units bypass the cmini compiler entirely;
// Knit renames their symbols at the object level, exactly the modified
// objcopy path the real implementation uses.
//
// Syntax (one directive or instruction per line; "#" starts a comment):
//
//	extern name              ; an undefined symbol (import)
//	string "text"            ; appends to the string table (index order)
//	data name size=N [local]
//	  init OFF = 42          ; constant word
//	  init OFF = &sym        ; address of a symbol
//	  init OFF = str K       ; address of string literal K
//	func name nargs=N nregs=N [frame=N] [local]
//	L1:                      ; label
//	  const r1, 42
//	  mov   r1, r2
//	  bin   r1, r2, +, r3    ; r1 = r2 + r3   (ops: + - * / % << >> & | ^ < > <= >= == !=)
//	  un    r1, -, r2        ; r1 = -r2       (ops: - ! ~)
//	  load  r1, r2           ; r1 = mem[r2]
//	  store r1, r2           ; mem[r1] = r2
//	  addrg r1, sym
//	  addrl r1, OFF
//	  addrs r1, K
//	  call  r1, sym, r2, r3  ; r1 = sym(r2, r3)
//	  callind r1, r2, r3     ; r1 = (*r2)(r3)
//	  jump  L1
//	  branch r1, L1, L2      ; if r1 != 0 goto L1 else L2
//	  ret   [r1]
package asm

import (
	"strconv"
	"strings"
	"unicode"

	"knit/internal/cmini"
	"knit/internal/diag"
	"knit/internal/obj"
)

// Parse assembles source into an object file.
func Parse(file, src string) (*obj.File, error) {
	p := &parser{out: obj.NewFile(file)}
	for i, raw := range strings.Split(src, "\n") {
		p.pos = diag.Pos{File: file, Line: i + 1, Col: len(raw) - len(strings.TrimLeftFunc(raw, unicode.IsSpace)) + 1}
		line := raw
		if j := strings.Index(line, "#"); j >= 0 {
			line = line[:j]
		}
		if j := strings.Index(line, ";"); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(strings.ReplaceAll(line, "\t", " "))
		if line == "" {
			continue
		}
		if err := p.directive(line); err != nil {
			return nil, err
		}
	}
	if err := p.finishFunc(); err != nil {
		return nil, err
	}
	return p.out, nil
}

type pendingTarget struct {
	instr int
	slot  int
	label string
	pos   diag.Pos
}

type parser struct {
	pos diag.Pos // the current line's first non-space column
	out *obj.File

	fn      *obj.Func
	fnLocal bool
	fnOrder int
	labels  map[string]int
	pending []pendingTarget
	curData *obj.Data
}

func (p *parser) errf(format string, args ...any) error {
	return diag.Errorf(p.pos, format, args...)
}

// finishFunc closes the open function, resolving label references.
func (p *parser) finishFunc() error {
	if p.fn == nil {
		return nil
	}
	for _, pt := range p.pending {
		idx, ok := p.labels[pt.label]
		if !ok {
			return diag.Errorf(pt.pos, "undefined label %q in %s", pt.label, p.fn.Name)
		}
		p.fn.Code[pt.instr].Targets[pt.slot] = idx
	}
	if len(p.fn.Code) == 0 || p.fn.Code[len(p.fn.Code)-1].Op != obj.OpRet {
		p.fn.Code = append(p.fn.Code, obj.Instr{Op: obj.OpRet, A: obj.NoReg})
	}
	p.fn.Order = p.fnOrder
	p.fnOrder++
	p.out.Funcs[p.fn.Name] = p.fn
	p.out.AddSym(&obj.Symbol{Name: p.fn.Name, Kind: obj.SymFunc, Defined: true, Local: p.fnLocal})
	p.fn = nil
	p.labels = nil
	p.pending = nil
	return nil
}

func (p *parser) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "extern":
		if err := p.finishFunc(); err != nil {
			return err
		}
		p.curData = nil
		if len(fields) != 2 {
			return p.errf("extern wants a symbol name")
		}
		p.out.AddSym(&obj.Symbol{Name: fields[1], Kind: obj.SymFunc})
		return nil
	case "string":
		if err := p.finishFunc(); err != nil {
			return err
		}
		p.curData = nil
		q := strings.TrimSpace(strings.TrimPrefix(line, "string"))
		s, err := strconv.Unquote(q)
		if err != nil {
			return p.errf("bad string literal %s", q)
		}
		p.out.Strings = append(p.out.Strings, s)
		return nil
	case "data":
		if err := p.finishFunc(); err != nil {
			return err
		}
		return p.dataDirective(fields[1:])
	case "func":
		if err := p.finishFunc(); err != nil {
			return err
		}
		p.curData = nil
		return p.funcDirective(fields[1:])
	case "init":
		if p.curData == nil {
			return p.errf("init outside a data block")
		}
		return p.initDirective(line)
	}
	if p.fn == nil {
		return p.errf("instruction %q outside a function", fields[0])
	}
	if strings.HasSuffix(fields[0], ":") && len(fields) == 1 {
		label := strings.TrimSuffix(fields[0], ":")
		if _, dup := p.labels[label]; dup {
			return p.errf("label %q redefined", label)
		}
		p.labels[label] = len(p.fn.Code)
		return nil
	}
	return p.instruction(line)
}

func (p *parser) dataDirective(args []string) error {
	if len(args) < 2 {
		return p.errf("data wants: data name size=N [local]")
	}
	d := &obj.Data{Name: args[0]}
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "size="):
			n, err := strconv.Atoi(a[5:])
			if err != nil || n <= 0 {
				return p.errf("bad size %q", a)
			}
			d.Size = n
		case a == "local":
			d.Local = true
		default:
			return p.errf("unknown data attribute %q", a)
		}
	}
	if d.Size == 0 {
		return p.errf("data %q missing size", d.Name)
	}
	if _, dup := p.out.Datas[d.Name]; dup {
		return p.errf("data %q redefined", d.Name)
	}
	p.out.Datas[d.Name] = d
	p.out.AddSym(&obj.Symbol{Name: d.Name, Kind: obj.SymData, Defined: true, Local: d.Local})
	p.curData = d
	return nil
}

func (p *parser) initDirective(line string) error {
	// init OFF = 42 | &sym | str K
	rest := strings.TrimSpace(strings.TrimPrefix(line, "init"))
	parts := strings.SplitN(rest, "=", 2)
	if len(parts) != 2 {
		return p.errf("init wants: init OFF = value")
	}
	off, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil || off < 0 || off >= p.curData.Size {
		return p.errf("bad init offset %q for data %q (size %d)",
			strings.TrimSpace(parts[0]), p.curData.Name, p.curData.Size)
	}
	val := strings.TrimSpace(parts[1])
	switch {
	case strings.HasPrefix(val, "&"):
		p.curData.Init = append(p.curData.Init,
			obj.DataInit{Offset: off, Kind: obj.InitSym, Sym: val[1:]})
	case strings.HasPrefix(val, "str "):
		k, err := strconv.Atoi(strings.TrimSpace(val[4:]))
		if err != nil || k < 0 {
			return p.errf("bad string index %q", val)
		}
		p.curData.Init = append(p.curData.Init,
			obj.DataInit{Offset: off, Kind: obj.InitString, Index: k})
	default:
		v, err := strconv.ParseInt(val, 0, 64)
		if err != nil {
			return p.errf("bad init value %q", val)
		}
		p.curData.Init = append(p.curData.Init,
			obj.DataInit{Offset: off, Kind: obj.InitConst, Val: v})
	}
	return nil
}

func (p *parser) funcDirective(args []string) error {
	if len(args) < 3 {
		return p.errf("func wants: func name nargs=N nregs=N [frame=N] [local]")
	}
	fn := &obj.Func{Name: args[0]}
	local := false
	sawArgs, sawRegs := false, false
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "nargs="):
			n, err := strconv.Atoi(a[6:])
			if err != nil || n < 0 {
				return p.errf("bad nargs %q", a)
			}
			fn.NArgs = n
			sawArgs = true
		case strings.HasPrefix(a, "nregs="):
			n, err := strconv.Atoi(a[6:])
			if err != nil || n <= 0 {
				return p.errf("bad nregs %q", a)
			}
			fn.NRegs = n
			sawRegs = true
		case strings.HasPrefix(a, "frame="):
			n, err := strconv.Atoi(a[6:])
			if err != nil || n < 0 {
				return p.errf("bad frame %q", a)
			}
			fn.Frame = n
		case a == "local":
			local = true
		default:
			return p.errf("unknown func attribute %q", a)
		}
	}
	if !sawArgs || !sawRegs {
		return p.errf("func %q needs nargs= and nregs=", fn.Name)
	}
	if fn.NArgs > fn.NRegs {
		return p.errf("func %q has more args than registers", fn.Name)
	}
	if _, dup := p.out.Funcs[fn.Name]; dup {
		return p.errf("func %q redefined", fn.Name)
	}
	p.fn = fn
	p.fnLocal = local
	p.labels = map[string]int{}
	p.curData = nil
	return nil
}

var binOps = map[string]cmini.Tok{
	"+": cmini.PLUS, "-": cmini.MINUS, "*": cmini.STAR, "/": cmini.SLASH,
	"%": cmini.PERCENT, "<<": cmini.SHL, ">>": cmini.SHR, "&": cmini.AMP,
	"|": cmini.PIPE, "^": cmini.CARET, "<": cmini.LT, ">": cmini.GT,
	"<=": cmini.LE, ">=": cmini.GE, "==": cmini.EQ, "!=": cmini.NE,
}

var unOps = map[string]cmini.Tok{
	"-": cmini.MINUS, "!": cmini.NOT, "~": cmini.TILDE,
}

func (p *parser) reg(s string) (obj.Reg, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "r") {
		return 0, p.errf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, p.errf("bad register %q", s)
	}
	if n >= p.fn.NRegs {
		return 0, p.errf("register %q out of range (nregs=%d)", s, p.fn.NRegs)
	}
	return obj.Reg(n), nil
}

// instruction parses one instruction line into the open function.
func (p *parser) instruction(line string) error {
	op, rest, _ := strings.Cut(line, " ")
	var args []string
	for _, a := range strings.Split(rest, ",") {
		args = append(args, strings.TrimSpace(a))
	}
	if rest == "" {
		args = nil
	}
	emit := func(in obj.Instr) { p.fn.Code = append(p.fn.Code, in) }
	need := func(n int) error {
		if len(args) != n {
			return p.errf("%s wants %d operands, got %d", op, n, len(args))
		}
		return nil
	}
	switch op {
	case "const":
		if err := need(2); err != nil {
			return err
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return p.errf("bad immediate %q", args[1])
		}
		emit(obj.Instr{Op: obj.OpConst, Dst: dst, Imm: v, A: obj.NoReg, B: obj.NoReg})
	case "mov":
		if err := need(2); err != nil {
			return err
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		src, err := p.reg(args[1])
		if err != nil {
			return err
		}
		emit(obj.Instr{Op: obj.OpMov, Dst: dst, A: src, B: obj.NoReg})
	case "bin":
		if err := need(4); err != nil {
			return err
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		a, err := p.reg(args[1])
		if err != nil {
			return err
		}
		tok, ok := binOps[args[2]]
		if !ok {
			return p.errf("unknown binary op %q", args[2])
		}
		b, err := p.reg(args[3])
		if err != nil {
			return err
		}
		emit(obj.Instr{Op: obj.OpBin, Dst: dst, A: a, B: b, Tok: int(tok)})
	case "un":
		if err := need(3); err != nil {
			return err
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		tok, ok := unOps[args[1]]
		if !ok {
			return p.errf("unknown unary op %q", args[1])
		}
		a, err := p.reg(args[2])
		if err != nil {
			return err
		}
		emit(obj.Instr{Op: obj.OpUn, Dst: dst, A: a, Tok: int(tok), B: obj.NoReg})
	case "load":
		if err := need(2); err != nil {
			return err
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		a, err := p.reg(args[1])
		if err != nil {
			return err
		}
		emit(obj.Instr{Op: obj.OpLoad, Dst: dst, A: a, B: obj.NoReg})
	case "store":
		if err := need(2); err != nil {
			return err
		}
		a, err := p.reg(args[0])
		if err != nil {
			return err
		}
		b, err := p.reg(args[1])
		if err != nil {
			return err
		}
		emit(obj.Instr{Op: obj.OpStore, A: a, B: b})
	case "addrg":
		if err := need(2); err != nil {
			return err
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		emit(obj.Instr{Op: obj.OpAddrGlobal, Dst: dst, Sym: args[1], A: obj.NoReg, B: obj.NoReg})
	case "addrl", "addrs":
		if err := need(2); err != nil {
			return err
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil || v < 0 {
			return p.errf("bad offset %q", args[1])
		}
		o := obj.OpAddrLocal
		if op == "addrs" {
			o = obj.OpAddrString
		}
		emit(obj.Instr{Op: o, Dst: dst, Imm: v, A: obj.NoReg, B: obj.NoReg})
	case "call":
		if len(args) < 2 {
			return p.errf("call wants: call rDST, sym, [args...]")
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		var argRegs []obj.Reg
		for _, a := range args[2:] {
			r, err := p.reg(a)
			if err != nil {
				return err
			}
			argRegs = append(argRegs, r)
		}
		emit(obj.Instr{Op: obj.OpCall, Dst: dst, Sym: args[1], Args: argRegs, A: obj.NoReg, B: obj.NoReg})
		p.out.AddSym(&obj.Symbol{Name: args[1], Kind: obj.SymFunc})
	case "callind":
		if len(args) < 2 {
			return p.errf("callind wants: callind rDST, rTARGET, [args...]")
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return err
		}
		target, err := p.reg(args[1])
		if err != nil {
			return err
		}
		var argRegs []obj.Reg
		for _, a := range args[2:] {
			r, err := p.reg(a)
			if err != nil {
				return err
			}
			argRegs = append(argRegs, r)
		}
		emit(obj.Instr{Op: obj.OpCallInd, Dst: dst, A: target, Args: argRegs, B: obj.NoReg})
	case "jump":
		if err := need(1); err != nil {
			return err
		}
		p.pending = append(p.pending, pendingTarget{
			instr: len(p.fn.Code), slot: 0, label: args[0], pos: p.pos})
		emit(obj.Instr{Op: obj.OpJump})
	case "branch":
		if err := need(3); err != nil {
			return err
		}
		c, err := p.reg(args[0])
		if err != nil {
			return err
		}
		p.pending = append(p.pending,
			pendingTarget{instr: len(p.fn.Code), slot: 0, label: args[1], pos: p.pos},
			pendingTarget{instr: len(p.fn.Code), slot: 1, label: args[2], pos: p.pos})
		emit(obj.Instr{Op: obj.OpBranch, A: c})
	case "ret":
		switch len(args) {
		case 0:
			emit(obj.Instr{Op: obj.OpRet, A: obj.NoReg})
		case 1:
			r, err := p.reg(args[0])
			if err != nil {
				return err
			}
			emit(obj.Instr{Op: obj.OpRet, A: r, HasVal: true})
		default:
			return p.errf("ret wants 0 or 1 operands")
		}
	default:
		return p.errf("unknown instruction %q", op)
	}
	return nil
}
