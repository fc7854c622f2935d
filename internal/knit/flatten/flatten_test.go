package flatten

import (
	"strings"
	"testing"

	"knit/internal/cmini"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
)

func elabProgram(t *testing.T, units, top string, sources link.Sources) *link.Program {
	t.Helper()
	f, err := lang.Parse("t.unit", units)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	reg, err := link.NewRegistry(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := link.Elaborate(reg, top, sources, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return p
}

const chainUnits = `
bundletype A = { fa }
bundletype B = { fb }

unit Bottom = {
  exports [ a : A ];
  files { "bottom.c" };
}
unit Top_ = {
  imports [ a : A ];
  exports [ b : B ];
  files { "top.c" };
}
unit K = {
  exports [ b : B ];
  link {
    [a] <- Bottom <- [];
    [b] <- Top_ <- [a];
  };
}
`

var chainSources = link.Sources{
	"bottom.c": `
struct shared { int x; int y; };
static int state = 1;
int fa(void) { return state; }
`,
	"top.c": `
struct shared { int x; int y; };
int fa(void);
int fb(void) { return fa() + 1; }
`,
}

// mergeAll merges every instance of p, sorted, from its renamed files.
func mergeAll(p *link.Program) (*cmini.File, error) {
	insts := p.SortedInstances()
	files := make([][]*cmini.File, len(insts))
	for k, inst := range insts {
		for i := range inst.Files {
			files[k] = append(files[k], inst.RenamedFile(i))
		}
	}
	return Merge("flat.c", insts, files)
}

func TestMergeBasics(t *testing.T) {
	p := elabProgram(t, chainUnits, "K", chainSources)
	merged, err := mergeAll(p)
	if err != nil {
		t.Fatal(err)
	}
	src := cmini.Print(merged)
	// Struct deduplicated.
	if n := strings.Count(src, "struct shared {"); n != 1 {
		t.Errorf("struct shared appears %d times:\n%s", n, src)
	}
	// The extern for fa is dropped: its definition is in the merged file.
	if strings.Contains(src, "extern") {
		t.Errorf("resolved extern not dropped:\n%s", src)
	}
	// Callee (fa) defined before caller (fb).
	ia := strings.Index(src, "fa__k")
	ib := strings.Index(src, "int fb")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("callee not before caller:\n%s", src)
	}
	// The merged file must still parse and compile.
	if _, err := cmini.Parse("flat.c", src); err != nil {
		t.Errorf("merged source does not reparse: %v", err)
	}
}

func TestMergeConflictingStructs(t *testing.T) {
	sources := link.Sources{
		"bottom.c": `
struct shared { int x; };
int fa(void) { return 0; }
`,
		"top.c": `
struct shared { int x; int y; };
int fa(void);
int fb(void) { return fa(); }
`,
	}
	p := elabProgram(t, chainUnits, "K", sources)
	_, err := mergeAll(p)
	if err == nil || !strings.Contains(err.Error(), "different layouts") {
		t.Errorf("err = %v, want struct layout conflict", err)
	}
}

func TestMergeKeepsUnresolvedExterns(t *testing.T) {
	sources := link.Sources{
		"bottom.c": `
extern int __console_out(int c);
int fa(void) { return __console_out(65); }
`,
		"top.c": `
int fa(void);
int fb(void) { return fa(); }
`,
	}
	p := elabProgram(t, chainUnits, "K", sources)
	merged, err := mergeAll(p)
	if err != nil {
		t.Fatal(err)
	}
	src := cmini.Print(merged)
	if !strings.Contains(src, "__console_out") {
		t.Errorf("ambient extern dropped:\n%s", src)
	}
}

func TestMergeMutualRecursionOrdered(t *testing.T) {
	units := `
bundletype E = { is_even }
bundletype O = { is_odd }
unit Even = {
  imports [ o : O ];
  exports [ e : E ];
  files { "even.c" };
}
unit Odd = {
  imports [ e : E ];
  exports [ o : O ];
  files { "odd.c" };
}
unit K = {
  exports [ e : E ];
  link {
    [e] <- Even <- [o];
    [o] <- Odd <- [e];
  };
}
`
	sources := link.Sources{
		"even.c": `
int is_odd(int n);
int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
`,
		"odd.c": `
int is_even(int n);
int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
`,
	}
	p := elabProgram(t, units, "K", sources)
	merged, err := mergeAll(p)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle: both functions must still be present exactly once.
	src := cmini.Print(merged)
	if strings.Count(src, "int is_even__k") != 1 || strings.Count(src, "int is_odd__k") != 1 {
		t.Errorf("mutually recursive functions mangled:\n%s", src)
	}
}

func TestMergeTwoInstancesNoCollision(t *testing.T) {
	units := `
bundletype C = { bump }
bundletype P = { bump_both }
unit Counter = {
  exports [ c : C ];
  files { "counter.c" };
}
unit Pair = {
  imports [ c1 : C, c2 : C ];
  exports [ p : P ];
  files { "pair.c" };
  rename {
    c1.bump to bump1;
    c2.bump to bump2;
  };
}
unit K = {
  exports [ p : P ];
  link {
    [a] <- Counter <- [];
    [b] <- Counter <- [];
    [p] <- Pair <- [a, b];
  };
}
`
	sources := link.Sources{
		"counter.c": `
static int n = 0;
int bump(void) { n++; return n; }
`,
		"pair.c": `
int bump1(void);
int bump2(void);
int bump_both(void) { return bump1() * 100 + bump2(); }
`,
	}
	p := elabProgram(t, units, "K", sources)
	merged, err := mergeAll(p)
	if err != nil {
		t.Fatal(err)
	}
	src := cmini.Print(merged)
	if strings.Count(src, "int bump__k") != 2 {
		t.Errorf("expected two distinct bump definitions:\n%s", src)
	}
	if strings.Count(src, "static int n__k") != 2 {
		t.Errorf("expected two distinct statics:\n%s", src)
	}
}
