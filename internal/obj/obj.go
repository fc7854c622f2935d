// Package obj models compiled object files: symbol tables, initialized
// data, and function code in a simple register IR. It is the common
// currency between the cmini compiler, the ld-style baseline linker, the
// Knit linker, and the simulated machine — playing the role that ELF .o
// files, ar archives, and objcopy play for the real Knit toolchain.
package obj

import (
	"fmt"
	"sort"
)

// SymKind says whether a symbol names code or data.
type SymKind int

// Symbol kinds.
const (
	SymFunc SymKind = iota
	SymData
)

func (k SymKind) String() string {
	if k == SymFunc {
		return "func"
	}
	return "data"
}

// Symbol is one entry in an object file's symbol table. A defined symbol
// is a "tab" in the paper's puzzle-piece picture; an undefined symbol is
// a "notch" that the linker must connect to a definition elsewhere.
// Local symbols (C statics) are invisible to linking.
type Symbol struct {
	Name    string
	Kind    SymKind
	Defined bool
	Local   bool
}

// Data is an initialized or zero-initialized data object.
type Data struct {
	Name  string
	Size  int        // size in words
	Init  []DataInit // sparse initializers; unmentioned words are zero
	Local bool
}

// DataInitKind distinguishes the relocation forms a data word can hold.
type DataInitKind int

// Data initializer kinds.
const (
	InitConst  DataInitKind = iota // a constant word
	InitString                     // address of a string literal (Index into Strings)
	InitSym                        // address of another symbol (Sym)
)

// DataInit sets one word of a data object at load time.
type DataInit struct {
	Offset int
	Kind   DataInitKind
	Val    int64  // InitConst
	Index  int    // InitString
	Sym    string // InitSym
}

// File is one object file: the compilation of a single cmini source file,
// or the output of a linker merge.
type File struct {
	Name    string
	Syms    []*Symbol
	Funcs   map[string]*Func
	Datas   map[string]*Data
	Strings []string // string-literal table referenced by AddrString/InitString
}

// NewFile returns an empty object file.
func NewFile(name string) *File {
	return &File{
		Name:  name,
		Funcs: map[string]*Func{},
		Datas: map[string]*Data{},
	}
}

// Sym returns the symbol named name, or nil.
func (f *File) Sym(name string) *Symbol {
	for _, s := range f.Syms {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// AddSym appends a symbol, replacing any existing undefined entry with
// the same name when the new one is defined.
func (f *File) AddSym(s *Symbol) {
	if old := f.Sym(s.Name); old != nil {
		if s.Defined && !old.Defined {
			*old = *s
		}
		return
	}
	f.Syms = append(f.Syms, s)
}

// Exports returns the names of non-local defined symbols, sorted.
func (f *File) Exports() []string {
	var out []string
	for _, s := range f.Syms {
		if s.Defined && !s.Local {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Imports returns the names of undefined symbols, sorted.
func (f *File) Imports() []string {
	var out []string
	for _, s := range f.Syms {
		if !s.Defined {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Op is an IR opcode.
type Op int

// IR opcodes. The IR is a register machine with an unbounded set of
// virtual registers per function, a per-function stack frame for
// address-taken locals and arrays, and symbolic references to globals.
const (
	OpConst      Op = iota // Dst = Imm
	OpMov                  // Dst = A
	OpBin                  // Dst = A Tok B
	OpUn                   // Dst = Tok A
	OpLoad                 // Dst = mem[A]
	OpStore                // mem[A] = B
	OpAddrGlobal           // Dst = &sym
	OpAddrLocal            // Dst = frame pointer + Imm
	OpAddrString           // Dst = &strings[Imm]
	OpCall                 // Dst = Sym(Args...), direct call
	OpCallInd              // Dst = (*A)(Args...), indirect call
	OpJump                 // goto Targets[0]
	OpBranch               // if A != 0 goto Targets[0] else Targets[1]
	OpRet                  // return A (HasVal says whether A is meaningful)
)

var opNames = [...]string{
	"const", "mov", "bin", "un", "load", "store", "addrg", "addrl",
	"addrs", "call", "callind", "jump", "branch", "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Reg is a virtual register index within a function.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// Instr is one IR instruction. Tok values come from the cmini token set
// (the compiler reuses operator tokens as ALU opcodes).
type Instr struct {
	Op      Op
	Dst     Reg
	A, B    Reg
	HasVal  bool // OpRet: a value is returned
	Imm     int64
	Sym     string
	Tok     int // cmini.Tok for OpBin/OpUn
	Args    []Reg
	Targets [2]int
}

// Func is the compiled body of one function.
type Func struct {
	Name  string
	NArgs int
	NRegs int
	Frame int // words of frame storage for arrays/address-taken locals
	// Order is the function's position among the definitions of its
	// source file. The optimizer's inliner — modelled on gcc 2.95, which
	// the paper used — only inlines callees defined *before* their
	// caller, which is why Knit's flattener sorts merged definitions
	// callees-first "to encourage inlining in the C compiler" (§6).
	Order int
	Code  []Instr
}

// Clone returns a deep copy of fn.
func (fn *Func) Clone() *Func {
	cp := *fn
	cp.Code = make([]Instr, len(fn.Code))
	for i, in := range fn.Code {
		if in.Args != nil {
			in.Args = append([]Reg(nil), in.Args...)
		}
		cp.Code[i] = in
	}
	return &cp
}

// Rename rewrites every global symbol reference in f — symbol-table
// entries, call targets, address-of-global operands, and data-initializer
// relocations — according to mapping. It is the model of the modified
// objcopy the Knit prototype uses for renaming and for duplicating
// multiply-instantiated units.
func Rename(f *File, mapping map[string]string) {
	if len(mapping) == 0 {
		return
	}
	ren := func(name string) string {
		if to, ok := mapping[name]; ok {
			return to
		}
		return name
	}
	for _, s := range f.Syms {
		s.Name = ren(s.Name)
	}
	newFuncs := make(map[string]*Func, len(f.Funcs))
	for name, fn := range f.Funcs {
		fn.Name = ren(name)
		for i := range fn.Code {
			if fn.Code[i].Sym != "" {
				fn.Code[i].Sym = ren(fn.Code[i].Sym)
			}
		}
		newFuncs[fn.Name] = fn
	}
	f.Funcs = newFuncs
	newDatas := make(map[string]*Data, len(f.Datas))
	for name, d := range f.Datas {
		d.Name = ren(name)
		for i := range d.Init {
			if d.Init[i].Kind == InitSym {
				d.Init[i].Sym = ren(d.Init[i].Sym)
			}
		}
		newDatas[d.Name] = d
	}
	f.Datas = newDatas
}

// Clone returns a deep copy of the object file.
func (f *File) Clone() *File {
	out := NewFile(f.Name)
	out.Strings = append([]string(nil), f.Strings...)
	for _, s := range f.Syms {
		cp := *s
		out.Syms = append(out.Syms, &cp)
	}
	for name, fn := range f.Funcs {
		out.Funcs[name] = fn.Clone()
	}
	for name, d := range f.Datas {
		cp := *d
		cp.Init = append([]DataInit(nil), d.Init...)
		out.Datas[name] = &cp
	}
	return out
}

// Append merges src into dst, remapping src's string-table indexes.
// Symbol-name collisions are the caller's responsibility: linkers must
// resolve or rename before appending. Local symbols from src are made
// unique by prefixing with src's file name if they collide.
//
// src is left unchanged and may be shared. dst gets its own copy of
// every symbol, and of every function and data object whose string
// references it rebases or whose locals it renames; it shares every
// other function and data object with src. So a file built by Append
// is read-only: a caller that edits a function or data object in it
// must clone that object first.
func Append(dst, src *File) {
	strBase := len(dst.Strings)
	dst.Strings = append(dst.Strings, src.Strings...)
	remap := map[string]string{}
	for _, s := range src.Syms {
		if !s.Local || dst.Sym(s.Name) == nil {
			continue
		}
		name := src.Name + "." + s.Name
		for i := 2; dst.Sym(name) != nil; i++ {
			name = fmt.Sprintf("%s.%s.%d", src.Name, s.Name, i)
		}
		remap[s.Name] = name
	}
	// A renamed src is a private clone whose objects Append may rebase
	// in place; otherwise it copies an object only to rebase it.
	private := len(remap) > 0
	if private {
		src = src.Clone()
		Rename(src, remap)
	}
	for _, s := range src.Syms {
		cp := *s
		dst.AddSym(&cp)
	}
	for name, fn := range src.Funcs {
		if strBase > 0 && refsStrings(fn) {
			if !private {
				fn = fn.Clone()
			}
			for i := range fn.Code {
				if fn.Code[i].Op == OpAddrString {
					fn.Code[i].Imm += int64(strBase)
				}
			}
		}
		dst.Funcs[name] = fn
	}
	for name, d := range src.Datas {
		if strBase > 0 && initsStrings(d) {
			if !private {
				cp := *d
				cp.Init = append([]DataInit(nil), d.Init...)
				d = &cp
			}
			for i := range d.Init {
				if d.Init[i].Kind == InitString {
					d.Init[i].Index += strBase
				}
			}
		}
		dst.Datas[name] = d
	}
}

// refsStrings reports whether fn takes the address of a string literal.
func refsStrings(fn *Func) bool {
	for i := range fn.Code {
		if fn.Code[i].Op == OpAddrString {
			return true
		}
	}
	return false
}

// initsStrings reports whether d holds the address of a string literal.
func initsStrings(d *Data) bool {
	for i := range d.Init {
		if d.Init[i].Kind == InitString {
			return true
		}
	}
	return false
}
