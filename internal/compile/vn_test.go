package compile

import (
	"testing"

	"knit/internal/asm"
	"knit/internal/cmini"
)

// FuzzValueNumber holds value numbering to its reference on generated
// functions: with inlining on and off, optimizing with valueNumber and
// with valueNumberReference gives the same IR, and Compile the same
// object text as CompileReference.
func FuzzValueNumber(f *testing.F) {
	f.Add([]byte("\x03\x02\x09\x00\x01\x04\x08\x05"), false)
	f.Add([]byte("\x08\x03\x03\x00\x00\x01\x02\x07\x01"), true)
	f.Add([]byte("\x02\x00\x02\x09\x00\x05\x06\x02\x01\x03\x00\x07\x04\x01\x0a\x09\x09"), true)
	f.Fuzz(func(t *testing.T, data []byte, noInline bool) {
		if len(data) > 256 {
			return
		}
		src := genProgram(data)
		file, err := cmini.Parse("gen.c", src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		opts := Options{Opt: true}
		if noInline {
			opts.InlineLimit = -1
		}
		got, err := lower(file)
		if err != nil {
			t.Fatalf("lower: %v\n%s", err, src)
		}
		want := got.Clone()
		optimize(got, opts)
		optimizeReference(want, opts)
		for name, fn := range want.Funcs {
			if g, w := Disasm(got.Funcs[name]), Disasm(fn); g != w {
				t.Fatalf("%s: value numbering differs from the reference:\n%s\ngot:\n%s\nwant:\n%s", name, src, g, w)
			}
		}
		compiled, err := Compile(file, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := CompileReference(file, opts)
		if err != nil {
			t.Fatal(err)
		}
		if asm.Format(compiled) != asm.Format(ref) {
			t.Fatalf("Compile differs from CompileReference:\n%s", src)
		}
	})
}
