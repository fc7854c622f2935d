package link_test

import (
	"testing"

	"knit/internal/asm"
	"knit/internal/clack"
	"knit/internal/cmini"
	"knit/internal/knit/build"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/oskit"
)

// asmUnits and asmSources are a two-unit program whose provider is
// written in assembly, so a build parses all three languages.
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

var asmSources = link.Sources{
	"str.s": `
func strlen_ nargs=1 nregs=5
  const r1, 0
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

// TestFrontEndTreesUnchangedByBuilds: every build on a cache shares its
// parsed trees, so no build may change one. After the router (modular
// and flattened), the OSKit kernels and an assembly program are built
// on one cache, each tree the cache holds must print as a fresh parse
// of its text does, and must print the same after the whole set is
// built again on it.
func TestFrontEndTreesUnchangedByBuilds(t *testing.T) {
	cache := build.NewCache()
	buildAll := func() {
		t.Helper()
		for _, v := range []clack.Variant{{}, {Flattened: true}} {
			if _, err := clack.BuildRouterTuned(v, func(o *build.Options) { o.Cache = cache }); err != nil {
				t.Fatalf("router %v: %v", v, err)
			}
		}
		for _, top := range []string{"FsKernel", "BigKernel"} {
			if _, err := oskit.BuildKernel(top, build.Options{Optimize: true, Cache: cache}); err != nil {
				t.Fatalf("%s: %v", top, err)
			}
		}
		for _, flatten := range []bool{false, true} {
			if _, err := build.Build(build.Options{Top: "Top", UnitFiles: map[string]string{"top.unit": asmUnits},
				Sources: asmSources, Optimize: true, Flatten: flatten, Cache: cache}); err != nil {
				t.Fatalf("assembly program: %v", err)
			}
		}
	}
	reprint := map[string]func(name, text string) (string, error){
		"unit": func(name, text string) (string, error) {
			f, err := lang.Parse(name, text)
			if err != nil {
				return "", err
			}
			return lang.Print(f), nil
		},
		"c": func(name, text string) (string, error) {
			f, err := cmini.Parse(name, text)
			if err != nil {
				return "", err
			}
			return cmini.Print(f), nil
		},
		"asm": func(name, text string) (string, error) {
			o, err := asm.Parse(name, text)
			if err != nil {
				return "", err
			}
			return asm.Format(o), nil
		},
	}

	buildAll()
	first := map[link.Tree]bool{}
	langs := map[string]int{}
	for _, tr := range cache.FrontEnd().Trees() {
		first[tr] = true
		langs[tr.Lang]++
		want, err := reprint[tr.Lang](tr.Name, tr.Text)
		if err != nil {
			t.Fatalf("%s %s: %v", tr.Lang, tr.Name, err)
		}
		if tr.Printed != want {
			t.Errorf("%s tree %s no longer prints as its source parses", tr.Lang, tr.Name)
		}
	}
	if langs["unit"] == 0 || langs["c"] == 0 || langs["asm"] == 0 {
		t.Fatalf("front end holds %v trees by language, want all three", langs)
	}

	buildAll()
	second := cache.FrontEnd().Trees()
	if len(second) != len(first) {
		t.Errorf("rebuilding on the cache changed its front end from %d to %d trees", len(first), len(second))
	}
	for _, tr := range second {
		if !first[tr] {
			t.Errorf("%s tree %s prints differently after the second round of builds", tr.Lang, tr.Name)
		}
	}
}
