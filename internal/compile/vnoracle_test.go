package compile_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knit/internal/asm"
	"knit/internal/clack"
	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/knit/build"
	"knit/internal/knit/flatten"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/oskit"
)

// oracleOptions are the option sets the repository oracle compiles
// every translation unit under: the default -O, the router's limits,
// -O0, value numbering off, and inlining off.
var oracleOptions = []compile.Options{
	{Opt: true},
	{Opt: true, InlineLimit: 2048, GrowthLimit: 1 << 15},
	{},
	{Opt: true, DisableCSE: true},
	{Opt: true, InlineLimit: -1},
}

// TestValueNumberMatchesReferenceOnRepository compiles every C source
// the repository builds with Compile and with CompileReference, the
// optimizer and renumbering they replaced, under each of
// oracleOptions, and requires identical object text: each instance's
// renamed file, and each program's flattened region. The programs are
// the oskit kernels, the census kernel, clack's routers (modular,
// flattened and hand-optimized) and upgrade targets, and every
// buildable unit of the examples and CLI test data.
func TestValueNumberMatchesReferenceOnRepository(t *testing.T) {
	seen := map[string]bool{}
	var files, regions int
	check := func(what string, f *cmini.File) {
		text := cmini.Print(f)
		if seen[text] {
			return
		}
		seen[text] = true
		for _, opts := range oracleOptions {
			got, err := compile.Compile(f, opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, err := compile.CompileReference(f, opts)
			if err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			if asm.Format(got) != asm.Format(want) {
				t.Errorf("%s (%s): object differs from the reference compiler's", what, opts.Key())
			}
		}
	}
	program := func(label string, prog *link.Program, filter func(*link.Instance) bool) {
		insts := prog.SortedInstances()
		var region []*link.Instance
		var renamed [][]*cmini.File
		for _, inst := range insts {
			var fs []*cmini.File
			for i := range inst.Files {
				f := inst.RenamedFile(i)
				check(label+" "+inst.Path+" "+f.Name, f)
				files++
				fs = append(fs, f)
			}
			if filter == nil || filter(inst) {
				region = append(region, inst)
				renamed = append(renamed, fs)
			}
		}
		merged, err := flatten.Merge("flattened.c", region, renamed)
		if err != nil {
			t.Fatalf("%s: merge: %v", label, err)
		}
		check(label+" flattened", merged)
		regions++
	}
	elaborate := func(label string, units map[string]string, sources link.Sources, tops ...string) {
		var parsed []*lang.File
		for name, text := range units {
			f, err := lang.Parse(name, text)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			parsed = append(parsed, f)
			if tops == nil {
				tops = roots(f)
			}
		}
		reg, err := link.NewRegistry(parsed...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, top := range tops {
			prog, err := link.Elaborate(reg, top, sources, nil)
			if err != nil {
				continue // a kernel the repository builds only to refuse
			}
			program(label+" "+top, prog, nil)
		}
	}

	elaborate("oskit", map[string]string{"oskit.unit": oskit.Units()}, oskit.KernelSources())
	census, censusSrc, censusTop := oskit.CensusKernel(100, 35)
	elaborate("census", map[string]string{"census.unit": census}, censusSrc, censusTop)
	for _, v := range []clack.Variant{{}, {Flattened: true}, {HandOptimized: true}, {HandOptimized: true, Flattened: true}} {
		var used build.Options
		res, err := clack.BuildRouterTuned(v, func(o *build.Options) { used = *o })
		if err != nil {
			t.Fatalf("router %v: %v", v, err)
		}
		program("router "+v.String(), res.Program, used.FlattenFilter)
	}
	for _, unit := range []string{"ClassifierV2", "ClassifierBad"} {
		tgt, err := clack.UpgradeTarget(unit)
		if err != nil {
			t.Fatal(err)
		}
		elaborate("upgrade "+unit, tgt.UnitFiles, tgt.Sources, tgt.Top)
	}
	for _, dir := range []string{"../../examples", "../../cmd/knit/testdata"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".unit") {
				return err
			}
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources := link.Sources{}
			siblings, err := os.ReadDir(filepath.Dir(path))
			if err != nil {
				return err
			}
			for _, e := range siblings {
				if strings.HasSuffix(e.Name(), ".c") || strings.HasSuffix(e.Name(), ".s") {
					src, err := os.ReadFile(filepath.Join(filepath.Dir(path), e.Name()))
					if err != nil {
						return err
					}
					sources[e.Name()] = string(src)
				}
			}
			elaborate(path, map[string]string{filepath.Base(path): string(text)}, sources)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d instance files and %d flattened regions, %d distinct translation units, each under %d option sets",
		files, regions, len(seen), len(oracleOptions))
	if len(seen) < 100 || regions < 20 {
		t.Errorf("only %d translation units and %d regions checked", len(seen), regions)
	}
}

// roots returns a unit file's buildable tops: units with no imports
// that no other unit in the file links.
func roots(f *lang.File) []string {
	linked := map[string]bool{}
	for _, u := range f.Units {
		for _, l := range u.Links {
			linked[l.Unit] = true
		}
	}
	var out []string
	for _, u := range f.Units {
		if len(u.Imports) == 0 && !linked[u.Name] && (u.IsCompound() || len(u.Files) > 0) {
			out = append(out, u.Name)
		}
	}
	return out
}
