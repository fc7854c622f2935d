package lang

import (
	"fmt"
	"strings"

	"knit/internal/cmini"
)

// Print renders a parsed unit file back to concrete syntax. The output
// reparses to an equivalent file; tools (like the Clack configuration
// compiler) use it to emit generated units in canonical form.
func Print(f *File) string {
	var b strings.Builder
	for _, bt := range f.BundleTypes {
		fmt.Fprintf(&b, "bundletype %s = { %s }\n", bt.Name, strings.Join(bt.Syms, ", "))
	}
	for _, fs := range f.FlagSets {
		var vals []string
		for _, v := range fs.Values {
			vals = append(vals, cmini.Quote(v))
		}
		fmt.Fprintf(&b, "flags %s = { %s }\n", fs.Name, strings.Join(vals, ", "))
	}
	for _, p := range f.Properties {
		if p.Propagates {
			fmt.Fprintf(&b, "property %s propagates\n", p.Name)
		} else {
			fmt.Fprintf(&b, "property %s\n", p.Name)
		}
		for _, v := range p.Values {
			if v.Below == "" {
				fmt.Fprintf(&b, "type %s\n", v.Name)
			} else {
				fmt.Fprintf(&b, "type %s < %s\n", v.Name, v.Below)
			}
		}
	}
	for _, u := range f.Units {
		b.WriteString("\n")
		printUnit(&b, u)
	}
	return b.String()
}

func printUnit(b *strings.Builder, u *Unit) {
	fmt.Fprintf(b, "unit %s = {\n", u.Name)
	if len(u.Imports) > 0 {
		fmt.Fprintf(b, "  imports [ %s ];\n", bindings(u.Imports))
	}
	if len(u.Exports) > 0 {
		fmt.Fprintf(b, "  exports [ %s ];\n", bindings(u.Exports))
	}
	for _, ini := range u.Inits {
		kw := "initializer"
		if ini.Finalizer {
			kw = "finalizer"
		}
		fmt.Fprintf(b, "  %s %s for %s;\n", kw, ini.Func, ini.Bundle)
	}
	if u.Fallback != "" {
		fmt.Fprintf(b, "  fallback %s;\n", u.Fallback)
	}
	if len(u.Depends) > 0 {
		b.WriteString("  depends {\n")
		for _, d := range u.Depends {
			fmt.Fprintf(b, "    %s needs %s;\n", depTerm(d.LHS), depTerm(d.RHS))
		}
		b.WriteString("  };\n")
	}
	if len(u.Constraints) > 0 {
		b.WriteString("  constraints {\n")
		for _, c := range u.Constraints {
			fmt.Fprintf(b, "    %s %s %s;\n", ref(c.LHS), c.Op, ref(c.RHS))
		}
		b.WriteString("  };\n")
	}
	if len(u.Files) > 0 || u.FlagsRef != "" {
		var names []string
		for _, f := range u.Files {
			names = append(names, cmini.Quote(f))
		}
		fmt.Fprintf(b, "  files { %s }", strings.Join(names, ", "))
		if u.FlagsRef != "" {
			fmt.Fprintf(b, " with flags %s", u.FlagsRef)
		}
		b.WriteString(";\n")
	}
	if len(u.Renames) > 0 {
		b.WriteString("  rename {\n")
		for _, r := range u.Renames {
			fmt.Fprintf(b, "    %s.%s to %s;\n", r.Bundle, r.Sym, r.To)
		}
		b.WriteString("  };\n")
	}
	if len(u.Links) > 0 {
		b.WriteString("  link {\n")
		for _, l := range u.Links {
			fmt.Fprintf(b, "    [%s] <- %s <- [%s];\n",
				strings.Join(l.Outs, ", "), l.Unit, strings.Join(l.Ins, ", "))
		}
		b.WriteString("  };\n")
	}
	b.WriteString("}\n")
}

func bindings(bs []Binding) string {
	var out []string
	for _, b := range bs {
		out = append(out, fmt.Sprintf("%s : %s", b.Local, b.Type))
	}
	return strings.Join(out, ", ")
}

func depTerm(terms []string) string {
	if len(terms) == 1 {
		return terms[0]
	}
	return "(" + strings.Join(terms, " + ") + ")"
}

func ref(r Ref) string {
	if r.IsValue() {
		return r.Value
	}
	return fmt.Sprintf("%s(%s)", r.Prop, r.Arg)
}
