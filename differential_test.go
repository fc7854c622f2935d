// Differential build equivalence tests: the compile cache and the
// parallel compile stage are pure build accelerators, so for every unit
// file shipped in the repo a cold cached build, a warm cached build, and
// a parallel build must produce byte-for-byte the object and image that
// a plain serial build produces. The fixtures are discovered by walking
// examples/ and cmd/knit/testdata/ for *.unit files, so adding an
// example automatically adds it to the suite.
package knit

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"knit/internal/asm"
	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/oskit"
)

// unitFixture is one on-disk .unit file plus the sources in its
// directory and the root units it can build standalone.
type unitFixture struct {
	name      string            // repo-relative path of the .unit file
	unitFiles map[string]string // file name -> unit text
	sources   link.Sources
	roots     []string // buildable top-level units; empty = parse-only
}

// discoverUnitFixtures walks the given directories for .unit files.
func discoverUnitFixtures(t *testing.T, dirs ...string) []unitFixture {
	t.Helper()
	var fixtures []unitFixture
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".unit") {
				return err
			}
			fixtures = append(fixtures, loadUnitFixture(t, path))
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", dir, err)
		}
	}
	sort.Slice(fixtures, func(i, j int) bool { return fixtures[i].name < fixtures[j].name })
	if len(fixtures) == 0 {
		t.Fatal("no .unit fixtures discovered")
	}
	return fixtures
}

func loadUnitFixture(t *testing.T, path string) unitFixture {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fx := unitFixture{
		name:      filepath.ToSlash(path),
		unitFiles: map[string]string{filepath.Base(path): string(text)},
		sources:   link.Sources{},
	}
	// Sibling .c and .s files form the virtual source filesystem, keyed
	// by base name as units reference them.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".c") || strings.HasSuffix(e.Name(), ".s") {
			src, err := os.ReadFile(filepath.Join(filepath.Dir(path), e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fx.sources[e.Name()] = string(src)
		}
	}
	fx.roots = rootUnits(t, path, string(text))
	return fx
}

// rootUnits parses a unit file and returns the units that are buildable
// tops on their own: units with no imports that are never instantiated
// by another unit in the file. Files whose units all import from
// elsewhere (dynamic modules) have no roots and are covered parse-only.
func rootUnits(t *testing.T, path, text string) []string {
	t.Helper()
	f, err := lang.Parse(filepath.Base(path), text)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	linked := map[string]bool{}
	for _, u := range f.Units {
		for _, l := range u.Links {
			linked[l.Unit] = true
		}
	}
	var roots []string
	for _, u := range f.Units {
		if len(u.Imports) == 0 && !linked[u.Name] && (u.IsCompound() || len(u.Files) > 0) {
			roots = append(roots, u.Name)
		}
	}
	return roots
}

// buildVariants runs the plain, cold-cached, warm-cached, and parallel
// builds of one configuration and asserts they are equivalent. The base
// options must not set Cache or Parallelism.
func buildVariants(t *testing.T, base build.Options) {
	t.Helper()
	doBuild := func(label string, tune func(*build.Options)) *build.Result {
		opts := base
		if tune != nil {
			tune(&opts)
		}
		res, err := build.Build(opts)
		if err != nil {
			t.Fatalf("%s build: %v", label, err)
		}
		return res
	}

	plain := doBuild("plain", nil)
	cache := build.NewCache()
	cold := doBuild("cold", func(o *build.Options) { o.Cache = cache; o.Parallelism = 1 })
	warm := doBuild("warm", func(o *build.Options) { o.Cache = cache; o.Parallelism = 1 })
	par := doBuild("parallel", func(o *build.Options) { o.Parallelism = 8 })

	if cold.Timings.CacheHits != 0 {
		t.Errorf("cold build reported %d cache hits, want 0", cold.Timings.CacheHits)
	}
	if warm.Timings.CacheHits != warm.Timings.CompileJobs {
		t.Errorf("warm build hit %d of %d compile jobs, want all",
			warm.Timings.CacheHits, warm.Timings.CompileJobs)
	}

	want := asm.Format(plain.Object)
	for _, v := range []struct {
		label string
		res   *build.Result
	}{{"cold", cold}, {"warm", warm}, {"parallel", par}} {
		if got := asm.Format(v.res.Object); got != want {
			t.Errorf("%s build object differs from plain build", v.label)
		}
		assertImagesEqual(t, v.label, plain, v.res)
		if !reflect.DeepEqual(v.res.Schedule.Inits, plain.Schedule.Inits) {
			t.Errorf("%s build init schedule %v, want %v",
				v.label, v.res.Schedule.Inits, plain.Schedule.Inits)
		}
		if !reflect.DeepEqual(v.res.Schedule.Fins, plain.Schedule.Fins) {
			t.Errorf("%s build finalize schedule %v, want %v",
				v.label, v.res.Schedule.Fins, plain.Schedule.Fins)
		}
	}
}

func assertImagesEqual(t *testing.T, label string, want, got *build.Result) {
	t.Helper()
	if got.Image.TextSize != want.Image.TextSize {
		t.Errorf("%s build text size %d, want %d", label, got.Image.TextSize, want.Image.TextSize)
	}
	if got.Image.DataWords != want.Image.DataWords {
		t.Errorf("%s build data words %d, want %d", label, got.Image.DataWords, want.Image.DataWords)
	}
	if !reflect.DeepEqual(got.Image.FuncAddr, want.Image.FuncAddr) {
		t.Errorf("%s build function layout differs", label)
	}
	if !reflect.DeepEqual(got.Image.GlobalAddr, want.Image.GlobalAddr) {
		t.Errorf("%s build global layout differs", label)
	}
}

// TestDifferentialUnitFiles covers every .unit file under examples/ and
// cmd/knit/testdata/: each buildable root is built plain, cold, warm,
// and parallel, in both separate-compilation and flattened form.
func TestDifferentialUnitFiles(t *testing.T) {
	for _, fx := range discoverUnitFixtures(t, "examples", filepath.Join("cmd", "knit", "testdata")) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			if len(fx.roots) == 0 {
				// Dynamic-module files import from a host configuration
				// and cannot elaborate standalone; the parse in
				// rootUnits already validated their syntax.
				t.Logf("no standalone roots; parse-only coverage")
				return
			}
			for _, root := range fx.roots {
				root := root
				t.Run(root, func(t *testing.T) {
					buildVariants(t, build.Options{
						Top:       root,
						UnitFiles: fx.unitFiles,
						Sources:   fx.sources,
					})
				})
				t.Run(root+"/flattened", func(t *testing.T) {
					buildVariants(t, build.Options{
						Top:       root,
						UnitFiles: fx.unitFiles,
						Sources:   fx.sources,
						Optimize:  true,
						Flatten:   true,
					})
				})
			}
		})
	}
}

// TestDifferentialClackRouter covers the generated Clack router — the
// largest configuration in the repo — in its modular and flattened
// variants.
func TestDifferentialClackRouter(t *testing.T) {
	for _, v := range []clack.Variant{{}, {Flattened: true}} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			buildRouter := func(label string, tune func(*build.Options)) *build.Result {
				res, err := clack.BuildRouterTuned(v, tune)
				if err != nil {
					t.Fatalf("%s build: %v", label, err)
				}
				return res
			}
			plain := buildRouter("plain", nil)
			cache := build.NewCache()
			cold := buildRouter("cold", func(o *build.Options) { o.Cache = cache; o.Parallelism = 1 })
			warm := buildRouter("warm", func(o *build.Options) { o.Cache = cache; o.Parallelism = 1 })
			par := buildRouter("parallel", func(o *build.Options) { o.Parallelism = 8 })

			if warm.Timings.CacheHits != warm.Timings.CompileJobs {
				t.Errorf("warm router build hit %d of %d compile jobs, want all",
					warm.Timings.CacheHits, warm.Timings.CompileJobs)
			}
			want := asm.Format(plain.Object)
			for _, r := range []struct {
				label string
				res   *build.Result
			}{{"cold", cold}, {"warm", warm}, {"parallel", par}} {
				if got := asm.Format(r.res.Object); got != want {
					t.Errorf("%s router build object differs from plain build", r.label)
				}
				assertImagesEqual(t, r.label, plain, r.res)
			}
		})
	}
}

// TestDifferentialOskitKernel covers the OSKit-style kernel builds.
func TestDifferentialOskitKernel(t *testing.T) {
	for _, top := range []string{"FsKernel", "BigKernel"} {
		top := top
		t.Run(top, func(t *testing.T) {
			doBuild := func(label string, tune func(*build.Options)) *build.Result {
				opts := build.Options{Optimize: true}
				if tune != nil {
					tune(&opts)
				}
				res, err := oskit.BuildKernel(top, opts)
				if err != nil {
					t.Fatalf("%s build: %v", label, err)
				}
				return res
			}
			plain := doBuild("plain", nil)
			cache := build.NewCache()
			cold := doBuild("cold", func(o *build.Options) { o.Cache = cache; o.Parallelism = 1 })
			warm := doBuild("warm", func(o *build.Options) { o.Cache = cache; o.Parallelism = 1 })
			par := doBuild("parallel", func(o *build.Options) { o.Parallelism = 8 })

			if warm.Timings.CacheHits != warm.Timings.CompileJobs {
				t.Errorf("warm kernel build hit %d of %d compile jobs, want all",
					warm.Timings.CacheHits, warm.Timings.CompileJobs)
			}
			want := asm.Format(plain.Object)
			for _, r := range []struct {
				label string
				res   *build.Result
			}{{"cold", cold}, {"warm", warm}, {"parallel", par}} {
				if got := asm.Format(r.res.Object); got != want {
					t.Errorf("%s kernel build object differs from plain build", r.label)
				}
				assertImagesEqual(t, r.label, plain, r.res)
				if !reflect.DeepEqual(r.res.Schedule.Inits, plain.Schedule.Inits) {
					t.Errorf("%s kernel init schedule differs", r.label)
				}
			}
		})
	}
}

// TestDifferentialSharedCache runs the suite's builds one after another
// on a single build.Cache: every .unit fixture root (modular and
// flattened), the OSKit kernels and the four router variants. By each
// build the cache holds the parsed files and compiled objects of every
// build before it, so a build that reused an entry it should not have,
// or one an earlier build had changed, shows here: each must equal its
// plain build.
func TestDifferentialSharedCache(t *testing.T) {
	cache := build.NewCache()
	check := func(label string, run func(tune func(*build.Options)) (*build.Result, error)) {
		t.Helper()
		plain, err := run(nil)
		if err != nil {
			t.Fatalf("%s plain build: %v", label, err)
		}
		shared, err := run(func(o *build.Options) { o.Cache = cache })
		if err != nil {
			t.Fatalf("%s shared-cache build: %v", label, err)
		}
		if asm.Format(shared.Object) != asm.Format(plain.Object) {
			t.Errorf("%s shared-cache build object differs from plain build", label)
		}
		assertImagesEqual(t, label+" shared-cache", plain, shared)
	}
	for _, fx := range discoverUnitFixtures(t, "examples", filepath.Join("cmd", "knit", "testdata")) {
		for _, root := range fx.roots {
			for _, flatten := range []bool{false, true} {
				base := build.Options{Top: root, UnitFiles: fx.unitFiles, Sources: fx.sources,
					Optimize: flatten, Flatten: flatten}
				check(fmt.Sprintf("%s %s flatten=%v", fx.name, root, flatten),
					func(tune func(*build.Options)) (*build.Result, error) {
						opts := base
						if tune != nil {
							tune(&opts)
						}
						return build.Build(opts)
					})
			}
		}
	}
	for _, top := range []string{"FsKernel", "BigKernel"} {
		check(top, func(tune func(*build.Options)) (*build.Result, error) {
			opts := build.Options{Optimize: true}
			if tune != nil {
				tune(&opts)
			}
			return oskit.BuildKernel(top, opts)
		})
	}
	for _, v := range []clack.Variant{{}, {Flattened: true}, {HandOptimized: true}, {HandOptimized: true, Flattened: true}} {
		check("router "+v.String(), func(tune func(*build.Options)) (*build.Result, error) {
			return clack.BuildRouterTuned(v, tune)
		})
	}
	if st := cache.Stats(); st.Hits == 0 || cache.FrontEnd().Len() == 0 {
		t.Errorf("shared cache served %d objects and holds %d parsed files; want both nonzero",
			st.Hits, cache.FrontEnd().Len())
	}
}
