// Package compile translates cmini source files into object files
// (internal/obj). It plays the role gcc plays in the real Knit toolchain:
// it compiles one translation unit at a time, and — crucially for the
// paper's flattening experiment — its inliner and optimizer only see one
// file at a time, so cross-component optimization requires the Knit
// flattener to merge sources first.
package compile

import (
	"fmt"

	"knit/internal/cmini"
	"knit/internal/diag"
)

// structLayout is the word layout of a named struct.
type structLayout struct {
	name   string
	size   int
	offset map[string]int
	ftype  map[string]cmini.Type
}

// layouts computes struct layouts for a file. Fields are laid out in
// declaration order, one word per scalar, nested arrays inline. Struct
// fields of struct type are inlined; self-reference must be by pointer.
func layouts(f *cmini.File) (map[string]*structLayout, error) {
	table := map[string]*structLayout{}
	// Two passes so order of struct declarations does not matter for
	// pointer fields; direct struct-typed fields require the referent to
	// be declared first.
	for _, d := range f.Decls {
		if sd, ok := d.(*cmini.StructDecl); ok {
			if _, dup := table[sd.Name]; dup {
				return nil, diag.Errorf(sd.Pos, "struct %q redefined", sd.Name)
			}
			table[sd.Name] = &structLayout{name: sd.Name}
		}
	}
	for _, d := range f.Decls {
		sd, ok := d.(*cmini.StructDecl)
		if !ok {
			continue
		}
		l := table[sd.Name]
		l.offset = map[string]int{}
		l.ftype = map[string]cmini.Type{}
		off := 0
		for _, fld := range sd.Fields {
			sz, err := typeSize(fld.Type, table)
			if err != nil {
				return nil, diag.Errorf(sd.Pos, "struct %s field %s: %v", sd.Name, fld.Name, err)
			}
			l.offset[fld.Name] = off
			l.ftype[fld.Name] = fld.Type
			off += sz
		}
		l.size = off
	}
	return table, nil
}

// typeSize returns the size of t in words.
func typeSize(t cmini.Type, structs map[string]*structLayout) (int, error) {
	switch t := t.(type) {
	case *cmini.Prim:
		if t.Kind == cmini.Void {
			return 0, fmt.Errorf("void has no size")
		}
		return 1, nil
	case *cmini.Pointer:
		return 1, nil
	case *cmini.Array:
		es, err := typeSize(t.Elem, structs)
		if err != nil {
			return 0, err
		}
		return es * t.Len, nil
	case *cmini.StructType:
		l, ok := structs[t.Name]
		if !ok {
			return 0, fmt.Errorf("unknown struct %q", t.Name)
		}
		if l.offset == nil {
			// Not laid out yet: forward or self reference by value.
			return 0, fmt.Errorf("struct %q used by value before it is defined (use a pointer)", t.Name)
		}
		return l.size, nil
	}
	return 0, fmt.Errorf("unsized type")
}

// isAggregate reports whether t is a struct or array (a value that lives
// in memory and is manipulated by address).
func isAggregate(t cmini.Type) bool {
	switch t.(type) {
	case *cmini.Array, *cmini.StructType:
		return true
	}
	return false
}
