package asm

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"knit/internal/diag/diagtest"
	"knit/internal/machine"
	"knit/internal/obj"
)

func run(t *testing.T, src, entry string, args ...int64) int64 {
	t.Helper()
	f, err := Parse("test.s", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	img, err := machine.Load(f, machine.DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m := machine.New(img)
	v, err := m.Run(entry, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestAssembleAdd(t *testing.T) {
	src := `
# the classic
func add nargs=2 nregs=3
  bin r2, r0, +, r1
  ret r2
`
	if v := run(t, src, "add", 30, 12); v != 42 {
		t.Errorf("add = %d", v)
	}
}

func TestAssembleLoopWithLabels(t *testing.T) {
	src := `
func sum nargs=1 nregs=4
  const r1, 0          ; acc
  const r2, 1
loop:
  branch r0, body, done
body:
  bin r1, r1, +, r0
  bin r0, r0, -, r2
  jump loop
done:
  ret r1
`
	if v := run(t, src, "sum", 10); v != 55 {
		t.Errorf("sum(10) = %d", v)
	}
}

func TestAssembleDataStringsAndCalls(t *testing.T) {
	src := `
string "hey"
data counter size=2
  init 0 = 5
  init 1 = &helper

func helper nargs=1 nregs=2
  const r1, 3
  bin r1, r0, *, r1
  ret r1

func main_ nargs=0 nregs=4
  addrg r0, counter
  load r1, r0          ; 5
  call r2, helper, r1  ; 15
  load r3, r0          ; still 5
  bin r2, r2, +, r3    ; 20
  addrs r3, 0
  load r3, r3          ; 'h'
  bin r2, r2, +, r3
  ret r2
`
	if v := run(t, src, "main_"); v != 20+'h' {
		t.Errorf("main_ = %d, want %d", v, 20+'h')
	}
}

func TestAssembleIndirectCall(t *testing.T) {
	src := `
data fptr size=1
  init 0 = &target

func target nargs=1 nregs=2
  const r1, 100
  bin r1, r0, +, r1
  ret r1

func main_ nargs=0 nregs=3
  addrg r0, fptr
  load r0, r0
  const r1, 7
  callind r2, r0, r1
  ret r2
`
	if v := run(t, src, "main_"); v != 107 {
		t.Errorf("main_ = %d", v)
	}
}

func TestAssembleFrameLocals(t *testing.T) {
	src := `
func swapsum nargs=2 nregs=5 frame=2
  addrl r2, 0
  store r2, r0
  addrl r3, 1
  store r3, r1
  load r4, r2
  load r2, r3
  bin r4, r4, +, r2
  ret r4
`
	if v := run(t, src, "swapsum", 3, 4); v != 7 {
		t.Errorf("swapsum = %d", v)
	}
}

func TestAssembleLocalSymbols(t *testing.T) {
	f, err := Parse("t.s", `
data hidden size=1 local
func peek nargs=0 nregs=2 local
  const r1, 1
  ret r1
func visible nargs=0 nregs=2
  call r1, peek
  ret r1
`)
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Sym("hidden"); s == nil || !s.Local {
		t.Error("hidden not marked local")
	}
	if s := f.Sym("peek"); s == nil || !s.Local {
		t.Error("peek not marked local")
	}
	if got := f.Exports(); len(got) != 1 || got[0] != "visible" {
		t.Errorf("exports = %v", got)
	}
}

func TestAssembleExterns(t *testing.T) {
	f, err := Parse("t.s", `
extern provide
func use nargs=0 nregs=2
  call r1, provide
  ret r1
`)
	if err != nil {
		t.Fatal(err)
	}
	imports := f.Imports()
	if len(imports) != 1 || imports[0] != "provide" {
		t.Errorf("imports = %v", imports)
	}
}

func TestImplicitReturnAppended(t *testing.T) {
	f, err := Parse("t.s", `
func nothing nargs=0 nregs=1
  const r0, 1
`)
	if err != nil {
		t.Fatal(err)
	}
	code := f.Funcs["nothing"].Code
	if code[len(code)-1].Op != obj.OpRet {
		t.Error("missing implicit ret")
	}
}

// assembleErrors are sources Parse refuses, with what the error says
// and where it points.
var assembleErrors = []struct{ name, src, want, pos string }{
	{"bad reg", "func f nargs=0 nregs=1\n  const rX, 1", "bad register", "2:3"},
	{"reg range", "func f nargs=0 nregs=1\n  const r5, 1", "out of range", "2:3"},
	{"unknown instr", "func f nargs=0 nregs=1\n  frobnicate r0", "unknown instruction", "2:3"},
	{"undefined label", "func f nargs=0 nregs=1\n  jump nowhere", "undefined label", "2:3"},
	{"label redef", "func f nargs=0 nregs=1\nl:\nl:\n  ret", "redefined", "3:1"},
	{"instr outside func", "const r0, 1", "outside a function", "1:1"},
	{"init outside data", "init 0 = 1", "outside a data block", "1:1"},
	{"init out of range", "data d size=2\n  init 5 = 1", "bad init offset", "2:3"},
	{"missing nregs", "func f nargs=0 frame=0 local", "needs nargs= and nregs=", "1:1"},
	{"args gt regs", "func f nargs=3 nregs=2", "more args than registers", "1:1"},
	{"dup func", "func f nargs=0 nregs=1\n  ret\nfunc f nargs=0 nregs=1", "redefined", "3:1"},
	{"dup data", "data d size=1\ndata d size=1", "redefined", "2:1"},
	{"bad op", "func f nargs=0 nregs=2\n  bin r1, r0, @, r0", "unknown binary op", "2:3"},
	{"bad string", `string hey`, "bad string literal", "1:1"},
}

func TestAssembleErrors(t *testing.T) {
	for _, c := range assembleErrors {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t.s", c.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			if got := diagtest.At(t, err, c.src); got != c.pos {
				t.Errorf("error %q at %s, want %s", err, got, c.pos)
			}
		})
	}
}

// FuzzAsm: any text either assembles or is refused with an error
// positioned inside it. It is seeded with the error table and with every
// raw string literal in this package's tests, which are the assembly
// sources they assemble.
func FuzzAsm(f *testing.F) {
	for _, c := range assembleErrors {
		f.Add(c.src)
	}
	for _, name := range []string{"asm_test.go", "format_test.go"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, lit := range regexp.MustCompile("`[^`]*`").FindAllString(string(data), -1) {
			f.Add(strings.Trim(lit, "`"))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Parse("fuzz.s", src); err != nil {
			diagtest.At(t, err, src)
		}
	})
}
