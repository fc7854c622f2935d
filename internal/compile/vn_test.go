package compile

import (
	"math/rand"
	"testing"

	"knit/internal/asm"
	"knit/internal/cmini"
)

// FuzzValueNumber holds the optimizer to its reference on generated
// functions: with inlining on and off, optimize (the scoped table's
// value numbering and the worklist's dead-code elimination) and
// optimizeReference give the same IR, and Compile the same object text
// as CompileReference.
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
		new(scratch).optimize(got, opts)
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

// TestExprTableMatchesModel holds the scoped expression table to a map
// with an undo log — the structure it replaced — on random sequences of
// sets, kills, marks and undos over a small key space, so keys are set,
// shadowed and killed again. The table starts at its smallest, so it
// grows while scopes are open; every step compares every key.
func TestExprTableMatchesModel(t *testing.T) {
	type undo struct {
		key exprKey
		old int // 0: absent
	}
	type mark struct{ log, entries int }
	grownInScope := 0
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		keys := make([]exprKey, 48)
		for i := range keys {
			keys[i] = exprKey{op: int32(r.Intn(14)), tok: int32(r.Intn(3)),
				a: int32(r.Intn(6)), b: int32(r.Intn(6)), imm: int64(r.Intn(5)) - 2}
		}
		var tab exprTable
		tab.grow()
		model := map[exprKey]int{}
		var log []undo
		var marks []mark
		set := func(k exprKey, vn int) {
			log = append(log, undo{k, model[k]})
			if vn == 0 {
				delete(model, k)
			} else {
				model[k] = vn
			}
			buckets := len(tab.heads)
			tab.set(k, vn)
			if len(tab.heads) != buckets && len(marks) > 0 {
				grownInScope++
			}
		}
		for step := 0; step < 1500; step++ {
			switch op := r.Intn(20); {
			case op < 11:
				set(keys[r.Intn(len(keys))], 1+r.Intn(1000))
			case op < 15:
				set(keys[r.Intn(len(keys))], 0)
			case op < 17:
				marks = append(marks, mark{len(log), len(tab.entries)})
			case len(marks) > 0:
				m := marks[len(marks)-1]
				marks = marks[:len(marks)-1]
				for i := len(log) - 1; i >= m.log; i-- {
					if u := log[i]; u.old == 0 {
						delete(model, u.key)
					} else {
						model[u.key] = u.old
					}
				}
				log = log[:m.log]
				tab.popTo(m.entries)
			}
			for _, k := range keys {
				if got, want := tab.lookup(k), model[k]; got != want {
					t.Fatalf("seed %d step %d: key %+v has value number %d, want %d", seed, step, k, got, want)
				}
			}
		}
	}
	if grownInScope == 0 {
		t.Error("the table never grew while a scope was open")
	}
}
