package link_test

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"knit/internal/asm"
	"knit/internal/clack"
	"knit/internal/cmini"
	"knit/internal/knit/build"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/knit/reconfigure"
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

// TestMemoSingleFlight: goroutines asking for one file while it is
// being parsed wait for that parse, so it runs once; a failed parse is
// not stored, and leaves no goroutine waiting — each parses for itself
// and gets its own error.
func TestMemoSingleFlight(t *testing.T) {
	const n = 8
	vals, errs, calls := link.MemoGet(n, func(name, text string) (string, error) { return name + ":" + text, nil })
	if calls != 1 {
		t.Errorf("%d goroutines asking at once parsed %d times, want 1", n, calls)
	}
	for i := range vals {
		if errs[i] != nil || vals[i] != "f:text" {
			t.Errorf("goroutine %d got %q, %v", i, vals[i], errs[i])
		}
	}
	_, errs, calls = link.MemoGet(n, func(name, text string) (string, error) { return "", errors.New("parse failed") })
	if calls != n {
		t.Errorf("failing parse ran %d times for %d goroutines, want once each", calls, n)
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("goroutine %d parsed a failing file without error", i)
		}
	}
}

// TestConcurrentBuildsParseAndCompileOnce: eight builds of one
// configuration at once on a fresh cache — the router, modular and
// flattened — parse each file once and compile each translation unit
// once, and agree on the object. Builds of a configuration whose
// compile or parse fails all return the lone build's error.
func TestConcurrentBuildsParseAndCompileOnce(t *testing.T) {
	const n = 8
	concurrently := func(buildOn func(*build.Cache) (*build.Result, error)) (*build.Cache, []*build.Result, []error) {
		cache := build.NewCache()
		results, errs := make([]*build.Result, n), make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = buildOn(cache)
			}(i)
		}
		wg.Wait()
		return cache, results, errs
	}

	for _, v := range []clack.Variant{{}, {Flattened: true}} {
		buildOn := func(cache *build.Cache) (*build.Result, error) {
			return clack.BuildRouterTuned(v, func(o *build.Options) { o.Cache = cache })
		}
		lone, err := buildOn(build.NewCache())
		if err != nil {
			t.Fatal(err)
		}
		cache, results, errs := concurrently(buildOn)
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("%+v build %d: %v", v, i, errs[i])
			}
			if asm.Format(res.Object) != asm.Format(lone.Object) {
				t.Errorf("%+v build %d built a different object", v, i)
			}
		}
		st := cache.Stats()
		if st.Misses != st.Entries || st.Misses != lone.Timings.CompileJobs {
			t.Errorf("%+v: %d builds at once compiled %d times, want each of the %d translation units once (stats %+v)",
				v, n, st.Misses, lone.Timings.CompileJobs, st)
		}
		if fe := cache.FrontEnd(); fe.Parses() != fe.Len() {
			t.Errorf("%+v: %d builds at once ran %d parses of %d files, want one each", v, n, fe.Parses(), fe.Len())
		}
	}

	for _, tc := range []struct {
		name, driver string
		flatten      bool
	}{
		{"compile error", "int strlen_(char *s);\nint run(int x) { break; return x; }\n", false},
		{"compile error in a flattened region", "int strlen_(char *s);\nint run(int x) { break; return x; }\n", true},
		{"parse error", "int strlen_(char *s);\nint run(int x) { return x + ; }\n", false},
	} {
		sources := link.Sources{"str.s": asmSources["str.s"], "driver.c": tc.driver}
		buildOn := func(cache *build.Cache) (*build.Result, error) {
			return build.Build(build.Options{Top: "Top", UnitFiles: map[string]string{"top.unit": asmUnits},
				Sources: sources, Optimize: true, Flatten: tc.flatten, Cache: cache})
		}
		_, want := buildOn(nil)
		if want == nil {
			t.Fatalf("%s: the lone build succeeded", tc.name)
		}
		_, _, errs := concurrently(buildOn)
		for i, err := range errs {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s: build %d returned %v, want %v", tc.name, i, err, want)
			}
		}
	}
}

// exampleDir reads an example's source directory: its unit files by
// name, and its C files as sources.
func exampleDir(t *testing.T, dir string) (map[string]string, link.Sources) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, sources := map[string]string{}, link.Sources{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		switch filepath.Ext(e.Name()) {
		case ".unit":
			units[e.Name()] = string(data)
		case ".c":
			sources[e.Name()] = string(data)
		}
	}
	return units, sources
}

// TestFrontEndTreesUnchangedByLiveOperations: instances share the front
// end's C trees and rename copies of them only when something reads the
// renamed file, so nothing may change a shared tree. A cold build, a
// warm rebuild, a flattened build, a dynamic load, a fallback swap and a
// reconfiguration plan, applied, all on one cache, must leave every C
// tree the cache holds printing exactly as a fresh parse of its text.
func TestFrontEndTreesUnchangedByLiveOperations(t *testing.T) {
	cache := build.NewCache()
	dynUnits, dynSources := exampleDir(t, "../../../examples/dynamic/src")
	base := build.Options{Top: "Base", UnitFiles: map[string]string{"base.unit": dynUnits["base.unit"]},
		Sources: dynSources, Check: true, Optimize: true, Cache: cache}
	res, err := build.Build(base)
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	if warm, err := build.Build(base); err != nil || warm.Timings.CacheHits != warm.Timings.CompileJobs {
		t.Fatalf("warm rebuild: %v, %d of %d jobs from the cache", err, warm.Timings.CacheHits, warm.Timings.CompileJobs)
	}
	flat := base
	flat.Flatten = true
	if _, err := build.Build(flat); err != nil {
		t.Fatalf("flattened build: %v", err)
	}
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	if _, err := res.LoadDynamic(m, build.DynamicUnit{Unit: "MonitorU",
		UnitFiles: map[string]string{"mon.unit": dynUnits["mon.unit"]}, Sources: dynSources,
		Wiring: map[string]string{"count": "count"}, Check: true}); err != nil {
		t.Fatalf("dynamic load: %v", err)
	}

	svcUnits, svcSources := exampleDir(t, "../../../examples/supervise/src")
	svc, err := build.Build(build.Options{Top: "Service", UnitFiles: svcUnits, Sources: svcSources, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	m = svc.NewMachine()
	if err := svc.RunInit(m); err != nil {
		t.Fatal(err)
	}
	var flaky *link.Instance
	for _, inst := range svc.Program.Instances {
		if inst.Unit.Name == "Flaky" {
			flaky = inst
		}
	}
	if _, err := svc.SwapFallback(m, flaky); err != nil {
		t.Fatalf("fallback swap: %v", err)
	}

	pipeUnits, pipeSources := exampleDir(t, "../../../examples/reconfigure/src")
	chain, err := build.Build(build.Options{Top: "Chain",
		UnitFiles: map[string]string{"pipeline.unit": pipeUnits["pipeline.unit"]}, Sources: pipeSources, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	m = chain.NewMachine()
	if err := chain.RunInit(m); err != nil {
		t.Fatal(err)
	}
	plan, err := reconfigure.Diff(chain, reconfigure.Target{Top: "Chain",
		UnitFiles: map[string]string{"pipeline_v2.unit": pipeUnits["pipeline_v2.unit"]}, Sources: pipeSources})
	if err != nil {
		t.Fatalf("reconfigure plan: %v", err)
	}
	if _, err := plan.Apply(m, nil); err != nil {
		t.Fatalf("applying the plan: %v", err)
	}

	checked := 0
	for _, tr := range cache.FrontEnd().Trees() {
		if tr.Lang != "c" {
			continue
		}
		f, err := cmini.Parse(tr.Name, tr.Text)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Printed != cmini.Print(f) {
			t.Errorf("C tree %s no longer prints as its source parses", tr.Name)
		}
		checked++
	}
	// counter.c, lock.c, monitor.c; flaky.c, safe.c; a.c, b.c, b2.c, c.c.
	if checked != 9 {
		t.Errorf("checked %d C trees, want 9", checked)
	}
}
