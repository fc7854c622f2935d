package link

import (
	"knit/internal/asm"
	"knit/internal/cmini"
	"knit/internal/knit/lang"
)

// Tree is one parsed file a FrontEnd holds: its language ("unit", "c"
// or "asm"), the name and text it was parsed from, and its printed
// form.
type Tree struct{ Lang, Name, Text, Printed string }

// Trees lists every tree fe holds, each printed by its language's
// printer.
func (fe *FrontEnd) Trees() []Tree {
	var out []Tree
	fe.units.mu.Lock()
	for k, f := range fe.units.m {
		out = append(out, Tree{"unit", k.name, k.text, lang.Print(f)})
	}
	fe.units.mu.Unlock()
	fe.c.mu.Lock()
	for k, f := range fe.c.m {
		out = append(out, Tree{"c", k.name, k.text, cmini.Print(f)})
	}
	fe.c.mu.Unlock()
	fe.asm.mu.Lock()
	for k, o := range fe.asm.m {
		out = append(out, Tree{"asm", k.name, k.text, asm.Format(o)})
	}
	fe.asm.mu.Unlock()
	return out
}
