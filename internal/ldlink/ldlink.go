// Package ldlink is the baseline "bag of objects" linker the paper's
// Section 2.1 describes: a model of Unix ld. Objects are linked through a
// single global namespace; archives contribute members only when they
// define a symbol some already-included object needs; a definition can be
// overridden by placing a replacement earlier on the command line — and,
// exactly as the paper argues, interposition on an interface is
// inexpressible because the interposer's export collides with the
// original definition in the flat namespace.
//
// Knit (internal/knit) is evaluated against this linker in the §6
// micro-benchmarks and in the Figure 1(c) interposition demonstration.
package ldlink

import (
	"fmt"
	"strings"

	"knit/internal/obj"
)

// Archive is an ar-style library: an ordered bag of object files.
type Archive struct {
	Name    string
	Members []*obj.File
}

// Item is one linker command-line argument: either an object file or an
// archive.
type Item struct {
	Object  *obj.File
	Archive *Archive
}

// Obj wraps an object file as a link item.
func Obj(f *obj.File) Item { return Item{Object: f} }

// Lib wraps an archive as a link item.
func Lib(a *Archive) Item { return Item{Archive: a} }

// Options controls a link.
type Options struct {
	// AllowUndefined lists symbols that may remain undefined (they are
	// satisfied at run time by machine builtins, e.g. device entry
	// points). A trailing "*" makes an entry a prefix match.
	AllowUndefined []string
	// Entry, when set, is required to be defined in the output.
	Entry string
}

// LinkError is a link failure.
type LinkError struct{ Msg string }

func (e *LinkError) Error() string { return "ld: " + e.Msg }

// MultipleDefinitionError reports a symbol defined by two included
// objects — the error that makes Figure 1(c)-style interposition
// inexpressible with a flat namespace.
type MultipleDefinitionError struct {
	Sym           string
	First, Second string // object file names
}

func (e *MultipleDefinitionError) Error() string {
	return fmt.Sprintf("ld: multiple definition of %q (first defined in %s, again in %s)",
		e.Sym, e.First, e.Second)
}

// UndefinedError reports unresolved references at the end of the link.
type UndefinedError struct{ Syms []string }

func (e *UndefinedError) Error() string {
	return "ld: undefined reference to " + strings.Join(e.Syms, ", ")
}

// Link resolves items in command-line order and returns a single merged
// object file, mirroring ld's behaviour:
//
//   - explicit objects are always included, in order;
//   - archive members are included only if they define a symbol that is
//     undefined at the time the archive is examined (so an earlier object
//     can override a library member);
//   - two included objects defining the same global symbol is an error;
//   - any reference still undefined at the end is an error, unless
//     allowed by Options.AllowUndefined.
//
// The merged file is built with obj.Append, so it shares functions and
// data objects with the items' objects and is read-only.
func Link(items []Item, opts Options) (*obj.File, error) {
	var included []*obj.File
	defined := map[string]string{} // symbol -> defining object name
	undef := map[string]bool{}

	include := func(f *obj.File) error {
		for _, s := range f.Syms {
			if s.Local {
				continue
			}
			if s.Defined {
				if prev, dup := defined[s.Name]; dup {
					return &MultipleDefinitionError{Sym: s.Name, First: prev, Second: f.Name}
				}
				defined[s.Name] = f.Name
				delete(undef, s.Name)
			} else if _, have := defined[s.Name]; !have {
				undef[s.Name] = true
			}
		}
		included = append(included, f)
		return nil
	}

	for _, item := range items {
		switch {
		case item.Object != nil:
			if err := include(item.Object); err != nil {
				return nil, err
			}
		case item.Archive != nil:
			taken := make([]bool, len(item.Archive.Members))
			for {
				progress := false
				for i, m := range item.Archive.Members {
					if taken[i] || !contributes(m, undef) {
						continue
					}
					if err := include(m); err != nil {
						return nil, err
					}
					taken[i] = true
					progress = true
				}
				if !progress {
					break
				}
			}
		default:
			return nil, &LinkError{Msg: "empty link item"}
		}
	}

	var missing []string
	for sym := range undef {
		if !allowed(sym, opts.AllowUndefined) {
			missing = append(missing, sym)
		}
	}
	if len(missing) > 0 {
		sortStrings(missing)
		return nil, &UndefinedError{Syms: missing}
	}
	if opts.Entry != "" {
		if _, ok := defined[opts.Entry]; !ok {
			return nil, &LinkError{Msg: fmt.Sprintf("entry symbol %q not defined", opts.Entry)}
		}
	}

	out := obj.NewFile("a.out")
	for _, f := range included {
		obj.Append(out, f)
	}
	return out, nil
}

// contributes reports whether archive member m defines any currently
// undefined symbol.
func contributes(m *obj.File, undef map[string]bool) bool {
	for _, s := range m.Syms {
		if s.Defined && !s.Local && undef[s.Name] {
			return true
		}
	}
	return false
}

func allowed(sym string, allow []string) bool {
	for _, a := range allow {
		if a == sym {
			return true
		}
		if strings.HasSuffix(a, "*") && strings.HasPrefix(sym, a[:len(a)-1]) {
			return true
		}
	}
	return false
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
