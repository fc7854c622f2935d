package compile

import (
	"knit/internal/cmini"
	"knit/internal/diag"
	"knit/internal/obj"
)

// expr lowers e in value context, returning the register holding the
// value and the expression's type. Aggregate-typed expressions (arrays,
// structs) evaluate to their address.
func (fc *funcCompiler) expr(e cmini.Expr) (obj.Reg, cmini.Type, error) {
	switch e := e.(type) {
	case *cmini.IntLit:
		return fc.emitConst(e.Val), cmini.TypeInt, nil
	case *cmini.StrLit:
		idx := fc.internString(e.Val)
		r := fc.newReg()
		fc.emit(obj.Instr{Op: obj.OpAddrString, Dst: r, Imm: int64(idx), A: obj.NoReg, B: obj.NoReg})
		return r, &cmini.Pointer{Elem: cmini.TypeChar}, nil
	case *cmini.Ident:
		return fc.identValue(e)
	case *cmini.SizeofExpr:
		sz, err := typeSize(e.Type, fc.structs)
		if err != nil {
			return 0, nil, diag.Errorf(e.Pos, "sizeof: %v", err)
		}
		return fc.emitConst(int64(sz)), cmini.TypeInt, nil
	case *cmini.Unary:
		return fc.unary(e)
	case *cmini.Binary:
		return fc.binary(e)
	case *cmini.Assign:
		return fc.assign(e)
	case *cmini.IncDec:
		return fc.incDec(e)
	case *cmini.Call:
		return fc.call(e)
	case *cmini.Index, *cmini.Member:
		addr, typ, err := fc.addr(e)
		if err != nil {
			return 0, nil, err
		}
		if isAggregate(typ) {
			return addr, typ, nil
		}
		r := fc.newReg()
		fc.emit(obj.Instr{Op: obj.OpLoad, Dst: r, A: addr, B: obj.NoReg})
		return r, typ, nil
	case *cmini.Cond:
		return fc.cond(e)
	}
	return 0, nil, diag.Errorf(e.ExprPos(), "compile: unhandled expression")
}

// identValue lowers a name in value context.
func (fc *funcCompiler) identValue(e *cmini.Ident) (obj.Reg, cmini.Type, error) {
	if li := fc.lookupLocal(e.Name); li != nil {
		if li.inReg {
			return li.reg, li.typ, nil
		}
		addr := fc.emitAddrLocal(li.frameOff)
		if isAggregate(li.typ) {
			return addr, decay(li.typ), nil
		}
		r := fc.newReg()
		fc.emit(obj.Instr{Op: obj.OpLoad, Dst: r, A: addr, B: obj.NoReg})
		return r, li.typ, nil
	}
	gi, ok := fc.globals[e.Name]
	if !ok {
		return 0, nil, diag.Errorf(e.Pos, "undeclared identifier %q", e.Name)
	}
	r := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpAddrGlobal, Dst: r, Sym: e.Name, A: obj.NoReg, B: obj.NoReg})
	if gi.isFunc {
		// A function name in value context is a function pointer.
		return r, cmini.TypeFn, nil
	}
	if isAggregate(gi.typ) {
		return r, decay(gi.typ), nil
	}
	v := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpLoad, Dst: v, A: r, B: obj.NoReg})
	return v, gi.typ, nil
}

// decay converts an array type to a pointer to its element; structs
// decay to pointers to themselves (their value is their address).
func decay(t cmini.Type) cmini.Type {
	switch t := t.(type) {
	case *cmini.Array:
		return &cmini.Pointer{Elem: t.Elem}
	case *cmini.StructType:
		return &cmini.Pointer{Elem: t}
	}
	return t
}

// addr lowers e in address context, returning a register holding the
// address and the type of the addressed object.
func (fc *funcCompiler) addr(e cmini.Expr) (obj.Reg, cmini.Type, error) {
	switch e := e.(type) {
	case *cmini.Ident:
		if li := fc.lookupLocal(e.Name); li != nil {
			if li.inReg {
				return 0, nil, diag.Errorf(e.Pos, "internal: register local %q used in address context", e.Name)
			}
			return fc.emitAddrLocal(li.frameOff), li.typ, nil
		}
		gi, ok := fc.globals[e.Name]
		if !ok {
			return 0, nil, diag.Errorf(e.Pos, "undeclared identifier %q", e.Name)
		}
		r := fc.newReg()
		fc.emit(obj.Instr{Op: obj.OpAddrGlobal, Dst: r, Sym: e.Name, A: obj.NoReg, B: obj.NoReg})
		typ := gi.typ
		if gi.isFunc {
			typ = cmini.TypeFn
		}
		return r, typ, nil
	case *cmini.Unary:
		if e.Op != cmini.STAR {
			return 0, nil, diag.Errorf(e.Pos, "expression is not addressable")
		}
		v, t, err := fc.expr(e.X)
		if err != nil {
			return 0, nil, err
		}
		return v, pointee(t), nil
	case *cmini.Index:
		base, t, err := fc.expr(e.X) // pointers and decayed arrays
		if err != nil {
			return 0, nil, err
		}
		elem := pointee(t)
		esz, err := typeSize(elem, fc.structs)
		if err != nil {
			return 0, nil, diag.Errorf(e.Pos, "index: %v", err)
		}
		idx, _, err := fc.expr(e.I)
		if err != nil {
			return 0, nil, err
		}
		off := idx
		if esz != 1 {
			szr := fc.emitConst(int64(esz))
			off = fc.newReg()
			fc.emit(obj.Instr{Op: obj.OpBin, Dst: off, A: idx, B: szr, Tok: int(cmini.STAR)})
		}
		sum := fc.newReg()
		fc.emit(obj.Instr{Op: obj.OpBin, Dst: sum, A: base, B: off, Tok: int(cmini.PLUS)})
		return sum, elem, nil
	case *cmini.Member:
		var base obj.Reg
		var baseType cmini.Type
		var err error
		if e.Arrow {
			base, baseType, err = fc.expr(e.X)
			if err != nil {
				return 0, nil, err
			}
			baseType = pointee(baseType)
		} else {
			if id, ok := e.X.(*cmini.Ident); ok {
				li := fc.lookupLocal(id.Name)
				if li != nil && li.inReg {
					return 0, nil, diag.Errorf(e.Pos,
						"member access on non-struct value (type %s)", cmini.PrintType(li.typ))
				}
			}
			base, baseType, err = fc.addr(e.X)
			if err != nil {
				return 0, nil, err
			}
		}
		st, ok := baseType.(*cmini.StructType)
		if !ok {
			return 0, nil, diag.Errorf(e.Pos, "member access on non-struct value (type %s)", cmini.PrintType(baseType))
		}
		l, ok := fc.structs[st.Name]
		if !ok {
			return 0, nil, diag.Errorf(e.Pos, "unknown struct %q", st.Name)
		}
		off, ok := l.offset[e.Name]
		if !ok {
			return 0, nil, diag.Errorf(e.Pos, "struct %s has no field %q", st.Name, e.Name)
		}
		addr := base
		if off != 0 {
			offr := fc.emitConst(int64(off))
			addr = fc.newReg()
			fc.emit(obj.Instr{Op: obj.OpBin, Dst: addr, A: base, B: offr, Tok: int(cmini.PLUS)})
		}
		return addr, l.ftype[e.Name], nil
	}
	return 0, nil, diag.Errorf(e.ExprPos(), "expression is not addressable")
}

// pointee returns the element type of a pointer, or int for untyped
// pointer-ish values (fn, int used as address).
func pointee(t cmini.Type) cmini.Type {
	if p, ok := t.(*cmini.Pointer); ok {
		return p.Elem
	}
	return cmini.TypeInt
}

func isPointer(t cmini.Type) bool {
	_, ok := t.(*cmini.Pointer)
	return ok
}

func (fc *funcCompiler) unary(e *cmini.Unary) (obj.Reg, cmini.Type, error) {
	switch e.Op {
	case cmini.AMP:
		a, t, err := fc.addr(e.X)
		if err != nil {
			return 0, nil, err
		}
		if t == cmini.TypeFn || isFuncType(t) {
			return a, cmini.TypeFn, nil
		}
		return a, &cmini.Pointer{Elem: t}, nil
	case cmini.STAR:
		v, t, err := fc.expr(e.X)
		if err != nil {
			return 0, nil, err
		}
		elem := pointee(t)
		if isAggregate(elem) {
			return v, decay(elem), nil
		}
		r := fc.newReg()
		fc.emit(obj.Instr{Op: obj.OpLoad, Dst: r, A: v, B: obj.NoReg})
		return r, elem, nil
	}
	v, _, err := fc.expr(e.X)
	if err != nil {
		return 0, nil, err
	}
	r := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpUn, Dst: r, A: v, Tok: int(e.Op), B: obj.NoReg})
	return r, cmini.TypeInt, nil
}

func isFuncType(t cmini.Type) bool {
	p, ok := t.(*cmini.Prim)
	return ok && p.Kind == cmini.Fn
}

func (fc *funcCompiler) binary(e *cmini.Binary) (obj.Reg, cmini.Type, error) {
	if e.Op == cmini.LAND || e.Op == cmini.LOR {
		return fc.shortCircuit(e)
	}
	a, ta, err := fc.expr(e.X)
	if err != nil {
		return 0, nil, err
	}
	b, tb, err := fc.expr(e.Y)
	if err != nil {
		return 0, nil, err
	}
	resType := cmini.Type(cmini.TypeInt)
	// Pointer arithmetic: p + i and p - i scale i by the element size;
	// p - q yields the element count between them.
	if e.Op == cmini.PLUS || e.Op == cmini.MINUS {
		switch {
		case isPointer(ta) && !isPointer(tb):
			b = fc.scale(b, ta, e)
			resType = ta
		case isPointer(tb) && !isPointer(ta) && e.Op == cmini.PLUS:
			a = fc.scale(a, tb, e)
			resType = tb
		case isPointer(ta) && isPointer(tb) && e.Op == cmini.MINUS:
			diff := fc.newReg()
			fc.emit(obj.Instr{Op: obj.OpBin, Dst: diff, A: a, B: b, Tok: int(cmini.MINUS)})
			esz, err := typeSize(pointee(ta), fc.structs)
			if err != nil || esz == 0 {
				esz = 1
			}
			if esz == 1 {
				return diff, cmini.TypeInt, nil
			}
			szr := fc.emitConst(int64(esz))
			q := fc.newReg()
			fc.emit(obj.Instr{Op: obj.OpBin, Dst: q, A: diff, B: szr, Tok: int(cmini.SLASH)})
			return q, cmini.TypeInt, nil
		}
	}
	r := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpBin, Dst: r, A: a, B: b, Tok: int(e.Op)})
	return r, resType, nil
}

// scale multiplies an index register by the pointee size of ptrType.
func (fc *funcCompiler) scale(idx obj.Reg, ptrType cmini.Type, e *cmini.Binary) obj.Reg {
	esz, err := typeSize(pointee(ptrType), fc.structs)
	if err != nil || esz <= 1 {
		return idx
	}
	szr := fc.emitConst(int64(esz))
	r := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpBin, Dst: r, A: idx, B: szr, Tok: int(cmini.STAR)})
	return r
}

func (fc *funcCompiler) shortCircuit(e *cmini.Binary) (obj.Reg, cmini.Type, error) {
	res := fc.newReg()
	a, _, err := fc.expr(e.X)
	if err != nil {
		return 0, nil, err
	}
	// res = (a != 0)
	zero := fc.emitConst(0)
	fc.emit(obj.Instr{Op: obj.OpBin, Dst: res, A: a, B: zero, Tok: int(cmini.NE)})
	br := fc.emit(obj.Instr{Op: obj.OpBranch, A: res})
	evalY := fc.here()
	b, _, err := fc.expr(e.Y)
	if err != nil {
		return 0, nil, err
	}
	zero2 := fc.emitConst(0)
	fc.emit(obj.Instr{Op: obj.OpBin, Dst: res, A: b, B: zero2, Tok: int(cmini.NE)})
	end := fc.here()
	if e.Op == cmini.LAND {
		// a true -> evaluate Y; a false -> res already 0.
		fc.fn.Code[br].Targets[0] = evalY
		fc.fn.Code[br].Targets[1] = end
	} else {
		// a true -> res already 1; a false -> evaluate Y.
		fc.fn.Code[br].Targets[0] = end
		fc.fn.Code[br].Targets[1] = evalY
	}
	return res, cmini.TypeInt, nil
}

func (fc *funcCompiler) cond(e *cmini.Cond) (obj.Reg, cmini.Type, error) {
	c, _, err := fc.expr(e.C)
	if err != nil {
		return 0, nil, err
	}
	res := fc.newReg()
	br := fc.emit(obj.Instr{Op: obj.OpBranch, A: c})
	fc.fn.Code[br].Targets[0] = fc.here()
	a, ta, err := fc.expr(e.Then)
	if err != nil {
		return 0, nil, err
	}
	fc.emit(obj.Instr{Op: obj.OpMov, Dst: res, A: a, B: obj.NoReg})
	jEnd := fc.emit(obj.Instr{Op: obj.OpJump})
	fc.fn.Code[br].Targets[1] = fc.here()
	b, _, err := fc.expr(e.Else)
	if err != nil {
		return 0, nil, err
	}
	fc.emit(obj.Instr{Op: obj.OpMov, Dst: res, A: b, B: obj.NoReg})
	fc.fn.Code[jEnd].Targets[0] = fc.here()
	return res, ta, nil
}

func (fc *funcCompiler) assign(e *cmini.Assign) (obj.Reg, cmini.Type, error) {
	// Fast path: assignment to a register-resident local.
	if id, ok := e.LHS.(*cmini.Ident); ok {
		if li := fc.lookupLocal(id.Name); li != nil && li.inReg {
			val, err := fc.assignValue(e, func() (obj.Reg, error) { return li.reg, nil })
			if err != nil {
				return 0, nil, err
			}
			fc.emit(obj.Instr{Op: obj.OpMov, Dst: li.reg, A: val, B: obj.NoReg})
			return li.reg, li.typ, nil
		}
	}
	addr, typ, err := fc.addr(e.LHS)
	if err != nil {
		return 0, nil, err
	}
	if isAggregate(typ) {
		return 0, nil, diag.Errorf(e.Pos, "cannot assign to aggregate value")
	}
	val, err := fc.assignValue(e, func() (obj.Reg, error) {
		r := fc.newReg()
		fc.emit(obj.Instr{Op: obj.OpLoad, Dst: r, A: addr, B: obj.NoReg})
		return r, nil
	})
	if err != nil {
		return 0, nil, err
	}
	fc.emit(obj.Instr{Op: obj.OpStore, A: addr, B: val})
	return val, typ, nil
}

// assignValue computes the right-hand value of an assignment; for
// compound assignments it combines the current value (obtained from cur)
// with the RHS.
func (fc *funcCompiler) assignValue(e *cmini.Assign, cur func() (obj.Reg, error)) (obj.Reg, error) {
	rhs, _, err := fc.expr(e.RHS)
	if err != nil {
		return 0, err
	}
	if e.Op == cmini.ASSIGN {
		return rhs, nil
	}
	binOp, ok := compoundOps[e.Op]
	if !ok {
		return 0, diag.Errorf(e.Pos, "unknown compound assignment %v", e.Op)
	}
	c, err := cur()
	if err != nil {
		return 0, err
	}
	r := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpBin, Dst: r, A: c, B: rhs, Tok: int(binOp)})
	return r, nil
}

func (fc *funcCompiler) incDec(e *cmini.IncDec) (obj.Reg, cmini.Type, error) {
	op := cmini.PLUS
	if e.Op == cmini.DEC {
		op = cmini.MINUS
	}
	if id, ok := e.X.(*cmini.Ident); ok {
		if li := fc.lookupLocal(id.Name); li != nil && li.inReg {
			old := fc.newReg()
			fc.emit(obj.Instr{Op: obj.OpMov, Dst: old, A: li.reg, B: obj.NoReg})
			step := fc.stepFor(li.typ)
			one := fc.emitConst(step)
			fc.emit(obj.Instr{Op: obj.OpBin, Dst: li.reg, A: li.reg, B: one, Tok: int(op)})
			return old, li.typ, nil
		}
	}
	addr, typ, err := fc.addr(e.X)
	if err != nil {
		return 0, nil, err
	}
	old := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpLoad, Dst: old, A: addr, B: obj.NoReg})
	one := fc.emitConst(fc.stepFor(typ))
	upd := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpBin, Dst: upd, A: old, B: one, Tok: int(op)})
	fc.emit(obj.Instr{Op: obj.OpStore, A: addr, B: upd})
	return old, typ, nil
}

// stepFor returns the ++/-- step: the pointee size for pointers, 1
// otherwise.
func (fc *funcCompiler) stepFor(t cmini.Type) int64 {
	if isPointer(t) {
		if sz, err := typeSize(pointee(t), fc.structs); err == nil && sz > 1 {
			return int64(sz)
		}
	}
	return 1
}

var compoundOps = map[cmini.Tok]cmini.Tok{
	cmini.ADDEQ: cmini.PLUS, cmini.SUBEQ: cmini.MINUS, cmini.MULEQ: cmini.STAR,
	cmini.DIVEQ: cmini.SLASH, cmini.MODEQ: cmini.PERCENT, cmini.ANDEQ: cmini.AMP,
	cmini.OREQ: cmini.PIPE, cmini.XOREQ: cmini.CARET, cmini.SHLEQ: cmini.SHL,
	cmini.SHREQ: cmini.SHR,
}

func (fc *funcCompiler) call(e *cmini.Call) (obj.Reg, cmini.Type, error) {
	var args []obj.Reg
	for _, a := range e.Args {
		r, _, err := fc.expr(a)
		if err != nil {
			return 0, nil, err
		}
		args = append(args, r)
	}
	// Direct call: callee is an identifier naming a function (not
	// shadowed by a local variable).
	if id, ok := e.Fun.(*cmini.Ident); ok && fc.lookupLocal(id.Name) == nil {
		gi, ok := fc.globals[id.Name]
		if ok && gi.isFunc {
			if len(gi.params) != len(args) {
				return 0, nil, diag.Errorf(e.Pos, "call to %s with %d args, want %d",
					id.Name, len(args), len(gi.params))
			}
			dst := fc.newReg()
			fc.emit(obj.Instr{Op: obj.OpCall, Dst: dst, Sym: id.Name, Args: args, A: obj.NoReg, B: obj.NoReg})
			res := gi.typ
			if res == nil {
				res = cmini.TypeVoid
			}
			return dst, res, nil
		}
		if !ok {
			return 0, nil, diag.Errorf(e.Pos, "call to undeclared function %q", id.Name)
		}
	}
	// Indirect call through a computed function value.
	fv, _, err := fc.expr(e.Fun)
	if err != nil {
		return 0, nil, err
	}
	dst := fc.newReg()
	fc.emit(obj.Instr{Op: obj.OpCallInd, Dst: dst, A: fv, Args: args, B: obj.NoReg})
	return dst, cmini.TypeInt, nil
}
