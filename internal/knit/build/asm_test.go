package build

import (
	"testing"
)

// TestAssemblyUnit builds a system whose hot-path component is
// implemented in assembly (paper: "Knit can actually work with C,
// assembly, and object code"). Assembly units are never flattened; they
// link as instance-renamed objects in both modular and flattened builds.
func TestAssemblyUnit(t *testing.T) {
	for _, flatten := range []bool{false, true} {
		opts := asmOptions()
		opts.Flatten = flatten
		res, err := Build(opts)
		if err != nil {
			t.Fatalf("Build(flatten=%v): %v", flatten, err)
		}
		m := res.NewMachine()
		v, err := res.Run(m, "main", "run", 10)
		if err != nil {
			t.Fatalf("Run(flatten=%v): %v", flatten, err)
		}
		if v != 15 {
			t.Errorf("flatten=%v: run(10) = %d, want 15 (strlen(\"hello\")+10)", flatten, v)
		}
	}
}

// asmOptions builds a two-unit program whose provider is written in
// assembly.
func asmOptions() Options {
	return Options{
		Top:       "Top",
		UnitFiles: map[string]string{"top.unit": asmUnits},
		Sources:   asmSources,
		Optimize:  true,
	}
}

const asmUnits = `
bundletype Str  = { strlen_ }
bundletype Main = { run }

unit AsmStr = {
  exports [ str : Str ];
  files { "str.s" };
}
unit Driver = {
  imports [ str : Str ];
  exports [ main : Main ];
  depends { main needs str; };
  files { "driver.c" };
}
unit Top = {
  exports [ main : Main ];
  link {
    [str] <- AsmStr <- [];
    [main] <- Driver <- [str];
  };
}
`

var asmSources = map[string]string{
	"str.s": `
# strlen_(s): scan for the NUL terminator.
func strlen_ nargs=1 nregs=5
  const r1, 0          ; n
  const r2, 1
scan:
  bin r3, r0, +, r1
  load r3, r3
  branch r3, more, done
more:
  bin r1, r1, +, r2
  jump scan
done:
  ret r1
`,
	"driver.c": `
int strlen_(char *s);
int run(int x) { return strlen_("hello") + x; }
`,
}
