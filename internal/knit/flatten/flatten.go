// Package flatten implements Knit's cross-component optimization (paper
// §6): it merges the instance-renamed C sources of many unit
// instances into a single compilation unit, eliminates duplicate
// declarations, and sorts function definitions so that definitions come
// before as many uses as possible — "to encourage inlining in the C
// compiler". The ordinary intra-file optimizer then inlines across what
// used to be component boundaries and removes the call overhead and
// redundant loads that componentization introduced.
package flatten

import (
	"fmt"
	"reflect"

	"knit/internal/cmini"
	"knit/internal/knit/link"
)

// Merge combines the sources of the given instances into one cmini file;
// files[k] holds instances[k]'s C files, renamed (link.Instance's
// RenamedFile). Instance renaming has made all global names unique, so
// the only reconciliation needed is:
//
//   - struct definitions: deduplicated by name; conflicting layouts are
//     an error;
//   - extern declarations: deduplicated, and dropped entirely when the
//     merged file contains the definition (the reference has become
//     intra-file — exactly what enables inlining);
//   - function definitions: topologically sorted callees-first.
func Merge(name string, instances []*link.Instance, files [][]*cmini.File) (*cmini.File, error) {
	out := &cmini.File{Name: name}
	structs := map[string]*cmini.StructDecl{}
	defined := map[string]bool{}
	var externs []cmini.Decl
	externSeen := map[string]bool{}
	var vars []cmini.Decl
	var funcs []*cmini.FuncDecl

	for k, inst := range instances {
		for _, f := range files[k] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *cmini.StructDecl:
					if prev, ok := structs[d.Name]; ok {
						if !sameStruct(prev, d) {
							return nil, fmt.Errorf(
								"flatten: struct %q defined with different layouts (in %s and %s)",
								d.Name, prev.Pos.File, d.Pos.File)
						}
						continue
					}
					structs[d.Name] = d
				case *cmini.VarDecl:
					if d.Extern {
						if !externSeen[d.Name] {
							externSeen[d.Name] = true
							externs = append(externs, d)
						}
						continue
					}
					if defined[d.Name] {
						return nil, fmt.Errorf("flatten: global %q defined twice after renaming (instance %s)",
							d.Name, inst.Path)
					}
					defined[d.Name] = true
					vars = append(vars, d)
				case *cmini.FuncDecl:
					if d.Body == nil {
						if !externSeen[d.Name] {
							externSeen[d.Name] = true
							externs = append(externs, d)
						}
						continue
					}
					if defined[d.Name] {
						return nil, fmt.Errorf("flatten: function %q defined twice after renaming (instance %s)",
							d.Name, inst.Path)
					}
					defined[d.Name] = true
					funcs = append(funcs, d)
				}
			}
		}
	}

	// Struct declarations first (layouts must precede by-value uses).
	orderedStructs, err := orderStructs(structs)
	if err != nil {
		return nil, err
	}
	for _, sd := range orderedStructs {
		out.Decls = append(out.Decls, sd)
	}
	// Externs whose definitions were merged in are dropped; the
	// definition will be ordered appropriately.
	for _, d := range externs {
		if !defined[d.DeclName()] {
			out.Decls = append(out.Decls, d)
		}
	}
	out.Decls = append(out.Decls, vars...)
	// Definitions sorted callees-first. (cmini resolves names file-wide,
	// so mutual recursion needs no forward declarations; the sort exists
	// to mirror the paper's "encourage inlining" ordering.)
	for _, fd := range sortCalleesFirst(funcs) {
		out.Decls = append(out.Decls, fd)
	}
	return out, nil
}

func sameStruct(a, b *cmini.StructDecl) bool {
	if len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i].Name != b.Fields[i].Name {
			return false
		}
		if !reflect.DeepEqual(a.Fields[i].Type, b.Fields[i].Type) {
			return false
		}
	}
	return true
}

// orderStructs sorts struct declarations so by-value field references
// come after their definitions; cycles (only legal via pointers) keep
// declaration order.
func orderStructs(structs map[string]*cmini.StructDecl) ([]*cmini.StructDecl, error) {
	var names []string
	for n := range structs {
		names = append(names, n)
	}
	sortStringsStable(names)
	// Dependencies: struct A depends on struct B if A has a field of
	// type B (or array of B) by value.
	deps := map[string][]string{}
	for _, n := range names {
		for _, f := range structs[n].Fields {
			if dep, ok := byValueStruct(f.Type); ok && dep != n {
				if _, exists := structs[dep]; exists {
					deps[n] = append(deps[n], dep)
				}
			}
		}
	}
	var out []*cmini.StructDecl
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(n string) error
	visit = func(n string) error {
		switch state[n] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("flatten: struct %q contains itself by value", n)
		}
		state[n] = 1
		for _, d := range deps[n] {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[n] = 2
		out = append(out, structs[n])
		return nil
	}
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func byValueStruct(t cmini.Type) (string, bool) {
	switch t := t.(type) {
	case *cmini.StructType:
		return t.Name, true
	case *cmini.Array:
		return byValueStruct(t.Elem)
	}
	return "", false
}

// sortCalleesFirst orders function definitions so that callees precede
// callers where possible (Kahn's algorithm on the static call graph;
// cycles fall back to original order).
func sortCalleesFirst(funcs []*cmini.FuncDecl) []*cmini.FuncDecl {
	index := map[string]int{}
	for i, f := range funcs {
		index[f.Name] = i
	}
	// callers[i] lists indexes of functions that call funcs[i].
	callees := make([][]int, len(funcs))
	indeg := make([]int, len(funcs))
	for i, f := range funcs {
		file := &cmini.File{Decls: []cmini.Decl{f}}
		for _, ref := range cmini.GlobalRefs(file) {
			if j, ok := index[ref.Name]; ok && j != i {
				callees[i] = append(callees[i], j)
				indeg[i]++ // i depends on j
			}
		}
	}
	// Kahn: emit functions whose dependencies are all emitted; among
	// ready functions pick original order (stable).
	emitted := make([]bool, len(funcs))
	done := make([]int, len(funcs)) // satisfied deps per function
	var out []*cmini.FuncDecl
	for len(out) < len(funcs) {
		progress := false
		for i := range funcs {
			if emitted[i] || done[i] < indeg[i] {
				continue
			}
			emitted[i] = true
			out = append(out, funcs[i])
			for j := range funcs {
				for _, dep := range callees[j] {
					if dep == i {
						done[j]++
					}
				}
			}
			progress = true
		}
		if !progress {
			// Cycle: emit remaining in original order.
			for i := range funcs {
				if !emitted[i] {
					emitted[i] = true
					out = append(out, funcs[i])
				}
			}
		}
	}
	return out
}

func sortStringsStable(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
