package build

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"knit/internal/asm"
	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/knit/link"
	"knit/internal/machine"
	"knit/internal/obj"
)

// TestCacheWarmBuildHitsEverything: a second build of an unchanged
// program must serve every translation unit from the cache and still
// produce a byte-identical object.
func TestCacheWarmBuildHitsEverything(t *testing.T) {
	cache := NewCache()
	opts := logServeOptions()
	opts.Cache = cache

	cold, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Timings.CacheHits != 0 {
		t.Errorf("cold build reported %d cache hits, want 0", cold.Timings.CacheHits)
	}
	if cold.Timings.CompileJobs == 0 {
		t.Fatal("cold build reported no compile jobs")
	}

	warm, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timings.CacheHits != warm.Timings.CompileJobs {
		t.Errorf("warm build hit %d of %d jobs, want all",
			warm.Timings.CacheHits, warm.Timings.CompileJobs)
	}
	if got, want := asm.Format(warm.Object), asm.Format(cold.Object); got != want {
		t.Error("warm object differs from cold object")
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Errorf("cache stats %+v, want hits and entries", st)
	}
}

// TestCacheInvalidationOnSourceChange: editing one source file must
// recompile exactly that translation unit on the next build.
func TestCacheInvalidationOnSourceChange(t *testing.T) {
	cache := NewCache()
	opts := logServeOptions()
	opts.Cache = cache
	if _, err := Build(opts); err != nil {
		t.Fatal(err)
	}

	edited := map[string]string{}
	for k, v := range logServeSources {
		edited[k] = v
	}
	edited["serve_cgi.c"] = `int serve_cgi(int s, char *path) { return 299; }`
	opts.Sources = edited
	res, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Timings.CacheHits, res.Timings.CompileJobs-1; got != want {
		t.Errorf("after editing one file: %d hits of %d jobs, want %d",
			got, res.Timings.CompileJobs, want)
	}
	m := res.NewMachine()
	machine.InstallConsole(m)
	v, err := res.Run(m, "main", "run", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 299 {
		t.Errorf("CGI request after edit returned %d, want 299", v)
	}
}

// TestCacheInvalidationOnOptions: the same sources built with different
// optimizer settings must not share cache entries.
func TestCacheInvalidationOnOptions(t *testing.T) {
	cache := NewCache()
	opts := logServeOptions()
	opts.Cache = cache
	if _, err := Build(opts); err != nil {
		t.Fatal(err)
	}
	opts.Optimize = true
	res, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.CacheHits != 0 {
		t.Errorf("optimized rebuild hit %d cached unoptimized objects, want 0",
			res.Timings.CacheHits)
	}
}

// TestCacheMissesOlderCompilerEntries: an object persisted by a
// compiler that predates register renumbering — keyed by the same
// source and options, when Options.Key() carried no compiler version —
// must be a miss for a later process, not a stale hit.
func TestCacheMissesOlderCompilerEntries(t *testing.T) {
	const text = "int f(int a) { int x = a * 3; int y = x + 1; return y * x; }"
	file, err := cmini.Parse("f.c", text)
	if err != nil {
		t.Fatal(err)
	}
	origin := link.FileOrigin{Text: text}
	copts := compile.Options{}
	// fileKey's framing around a given options key.
	keyWith := func(optsKey string) string {
		sum := sha256.Sum256([]byte("file\x00" + optsKey + "\x00f.c\x00" +
			strconv.Itoa(len(text)) + "\x00" + text + "0\x00"))
		return hex.EncodeToString(sum[:])
	}
	if keyWith(copts.Key()) != fileKey(copts, file.Name, origin) {
		t.Fatal("keyWith no longer mirrors fileKey")
	}
	want, err := compile.Compile(file, copts)
	if err != nil {
		t.Fatal(err)
	}
	stale := want.Clone()
	stale.Funcs["f"].NRegs += 5 // one register per temporary, as before
	dir := t.TempDir()
	older, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	older.object(keyWith("O0"), func() (*obj.File, error) { return stale, nil })

	later, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	inst := &link.Instance{Path: "f.c", Files: []*cmini.File{file}, Origins: []link.FileOrigin{origin}}
	objs, hits, err := runCompileJobs([]compileJob{{label: "f.c", inst: inst}}, copts, later, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Errorf("served %d objects stored under the pre-version key, want 0", hits)
	}
	if got, w := objs[0].Funcs["f"].NRegs, want.Funcs["f"].NRegs; got != w {
		t.Errorf("f has %d registers, want the current compiler's %d", got, w)
	}
}

// TestCachePartialReuseAcrossConfigurations: the key covers the
// resolved wiring, not just the file text. Growing a configuration
// from one wrapper to two reuses the unchanged prefix (the server and
// the inner wrapper keep their renamed sources) and recompiles only
// the genuinely new instance.
func TestCachePartialReuseAcrossConfigurations(t *testing.T) {
	units := func(top string) map[string]string {
		return map[string]string{"t.unit": `
bundletype Serve = { serve_web }
unit Server = { exports [ s : Serve ]; files { "server.c" }; }
unit Wrap = {
  imports [ inner : Serve ];
  exports [ outer : Serve ];
  files { "wrap.c" };
  rename { inner.serve_web to serve_inner; outer.serve_web to serve_outer; };
}
unit Once = {
  exports [ o : Serve ];
  link { [s] <- Server <- []; [o] <- Wrap <- [s]; };
}
unit Twice = {
  exports [ o : Serve ];
  link { [s] <- Server <- []; [w] <- Wrap <- [s]; [o] <- Wrap <- [w]; };
}
unit ` + top + `Top = { exports [ o : Serve ]; link { [o] <- ` + top + ` <- []; }; }
`}
	}
	sources := link.Sources{
		"server.c": `int serve_web(int s) { return 200; }`,
		"wrap.c": `
int serve_inner(int s);
int serve_outer(int s) { return serve_inner(s) + 1; }
`,
	}
	cache := NewCache()
	a, err := Build(Options{Top: "OnceTop", UnitFiles: units("Once"),
		Sources: sources, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if a.Timings.CacheHits != 0 {
		t.Fatalf("first build hit %d, want 0", a.Timings.CacheHits)
	}
	b, err := Build(Options{Top: "TwiceTop", UnitFiles: units("Twice"),
		Sources: sources, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	// Twice instantiates Server + two Wraps. The server and the inner
	// wrapper elaborate to the same renamed sources as in the Once
	// build, so they hit; the outer wrapper is wired differently
	// (imports from the inner wrapper, new instance suffix) and must
	// recompile.
	if b.Timings.CompileJobs != 3 || b.Timings.CacheHits != 2 {
		t.Errorf("grown configuration: %d/%d hits, want 2/3 (reuse prefix, recompile the new instance)",
			b.Timings.CacheHits, b.Timings.CompileJobs)
	}
	for res, want := range map[*Result]int64{a: 201, b: 202} {
		m := res.NewMachine()
		v, err := res.Run(m, "o", "serve_web", 1)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("serve_web = %d, want %d", v, want)
		}
	}
}

// TestCacheKeyFollowsReferencedRenames: a file's key holds the renames
// of the identifiers it declares or references and no others. Client
// calls only serve_web from its Serve import. Rewiring it to a provider
// that renames serve_aux, which client.c never mentions, changes
// nothing client.c compiles to, so it hits; a provider that renames
// serve_web changes what client.c calls, so it misses.
func TestCacheKeyFollowsReferencedRenames(t *testing.T) {
	units := map[string]string{"t.unit": `
bundletype Serve = { serve_web, serve_aux }
bundletype Main = { run }
unit ProvOne = { exports [ s : Serve ]; files { "one.c" }; rename { s.serve_aux to aux_one; }; }
unit ProvTwo = { exports [ s : Serve ]; files { "two.c" }; rename { s.serve_aux to aux_two; }; }
unit ProvThree = { exports [ s : Serve ]; files { "three.c" }; rename { s.serve_web to web_three; }; }
unit Client = { imports [ s : Serve ]; exports [ m : Main ]; files { "client.c" }; }
unit TopOne = { exports [ m : Main ]; link { [s] <- ProvOne <- []; [m] <- Client <- [s]; }; }
unit TopTwo = { exports [ m : Main ]; link { [s] <- ProvTwo <- []; [m] <- Client <- [s]; }; }
unit TopThree = { exports [ m : Main ]; link { [s] <- ProvThree <- []; [m] <- Client <- [s]; }; }
`}
	sources := link.Sources{
		"one.c":    `int serve_web(int x) { return x + 1; } int aux_one(int x) { return x; }`,
		"two.c":    `int serve_web(int x) { return x + 2; } int aux_two(int x) { return x; }`,
		"three.c":  `int web_three(int x) { return x + 3; } int serve_aux(int x) { return x; }`,
		"client.c": "int serve_web(int x);\nint run(int x) { return serve_web(x); }\n",
	}
	cache := NewCache()
	for _, tc := range []struct {
		top  string
		hits int
		run  int64
	}{
		{"TopOne", 0, 2},
		{"TopTwo", 1, 3},   // only serve_aux's rename changed
		{"TopThree", 0, 4}, // serve_web's rename changed
	} {
		res, err := Build(Options{Top: tc.top, UnitFiles: units, Sources: sources, Cache: cache})
		if err != nil {
			t.Fatalf("%s: %v", tc.top, err)
		}
		if res.Timings.CompileJobs != 2 || res.Timings.CacheHits != tc.hits {
			t.Errorf("%s: %d/%d hits, want %d/2", tc.top, res.Timings.CacheHits, res.Timings.CompileJobs, tc.hits)
		}
		client := res.Program.SortedInstances()[1]
		var keys []string
		for id := range client.Origins[0].Renames {
			keys = append(keys, id)
		}
		sort.Strings(keys)
		if fmt.Sprint(keys) != "[run serve_web]" {
			t.Errorf("%s: client.c renames %v, want only the identifiers it mentions, run and serve_web", tc.top, keys)
		}
		if v, err := res.Run(res.NewMachine(), "m", "run", 1); err != nil || v != tc.run {
			t.Errorf("%s: run(1) = %d, %v; want %d", tc.top, v, err, tc.run)
		}
	}
}

// TestCacheFlattenedRegionLooksUpOnce: a flattened region is one cache
// lookup, like every other translation unit, so a build's misses are
// exactly its compiled jobs — cold and warm, with the whole program
// flattened and with part of it left modular.
func TestCacheFlattenedRegionLooksUpOnce(t *testing.T) {
	for _, filter := range []func(*link.Instance) bool{
		nil,
		func(inst *link.Instance) bool { return inst.Unit.Name != "Log" },
	} {
		cache := NewCache()
		opts := logServeOptions()
		opts.Cache = cache
		opts.Optimize, opts.Flatten, opts.FlattenFilter = true, true, filter
		misses := 0
		for _, round := range []string{"cold", "warm"} {
			res, err := Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			tm := res.Timings
			got := cache.Stats().Misses - misses
			misses += got
			if want := tm.CompileJobs - tm.CacheHits; got != want {
				t.Errorf("%s flattened build (filtered %v): %d misses, want %d (%d jobs, %d hits)",
					round, filter != nil, got, want, tm.CompileJobs, tm.CacheHits)
			}
			if filter != nil && tm.CompileJobs < 2 {
				t.Errorf("filtered flattened build ran %d jobs, want the region and modular files", tm.CompileJobs)
			}
		}
	}
}

// TestCacheObjectSingleFlight: lookups that miss on one key together
// compile it once, the others waiting for that object; a failed
// compile stores nothing and leaves no lookup waiting — each compiles
// for itself and gets its own error.
func TestCacheObjectSingleFlight(t *testing.T) {
	const n = 8
	race := func(compile func() (*obj.File, error)) ([]*obj.File, []error, int, CacheStats) {
		cache := NewCache()
		var entered sync.WaitGroup
		entered.Add(n)
		var calls atomic.Int64
		counted := func() (*obj.File, error) {
			calls.Add(1)
			entered.Wait() // every lookup has started before a compile ends
			return compile()
		}
		objs, errs := make([]*obj.File, n), make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				entered.Done()
				objs[i], _, errs[i] = cache.object("key", counted)
			}(i)
		}
		wg.Wait()
		return objs, errs, int(calls.Load()), cache.Stats()
	}

	want := obj.NewFile("unit.o")
	objs, errs, calls, st := race(func() (*obj.File, error) { return want, nil })
	if calls != 1 || st.Misses != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Errorf("%d lookups at once: %d compiles, stats %+v; want 1 compile, 1 miss, %d hits", n, calls, st, n-1)
	}
	for i := range objs {
		if errs[i] != nil || objs[i] != want {
			t.Errorf("lookup %d got %p, %v; want the one compiled object", i, objs[i], errs[i])
		}
	}

	_, errs, calls, st = race(func() (*obj.File, error) { return nil, fmt.Errorf("compile failed") })
	if calls != n || st.Misses != n || st.Entries != 0 {
		t.Errorf("failing compile: %d compiles, stats %+v; want %d compiles and misses, nothing stored", calls, st, n)
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("lookup %d of a failing compile succeeded", i)
		}
	}
}

// TestCacheFlattenedRegion: with flattening on, the whole region is one
// cache entry; a warm build skips the merge and the compile.
func TestCacheFlattenedRegion(t *testing.T) {
	cache := NewCache()
	opts := logServeOptions()
	opts.Cache = cache
	opts.Optimize = true
	opts.Flatten = true

	cold, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Timings.CompileJobs != 1 {
		t.Fatalf("flattened cold build ran %d jobs, want 1 (the region)", cold.Timings.CompileJobs)
	}
	warm, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timings.CacheHits != 1 || warm.Timings.CompileJobs != 1 {
		t.Errorf("flattened warm build: %d/%d hits, want 1/1",
			warm.Timings.CacheHits, warm.Timings.CompileJobs)
	}
	if got, want := asm.Format(warm.Object), asm.Format(cold.Object); got != want {
		t.Error("warm flattened object differs from cold")
	}
}

// TestCacheDiskRoundTrip: a disk-backed cache persists entries across
// Cache instances (the cross-process -cache path).
func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := logServeOptions()
	opts.Cache = c1
	cold, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir) // fresh instance, same directory
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = c2
	warm, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timings.CacheHits != warm.Timings.CompileJobs {
		t.Errorf("disk-backed warm build hit %d of %d jobs, want all",
			warm.Timings.CacheHits, warm.Timings.CompileJobs)
	}
	if got, want := asm.Format(warm.Object), asm.Format(cold.Object); got != want {
		t.Error("object rebuilt from disk cache differs")
	}
	m := warm.NewMachine()
	machine.InstallConsole(m)
	if _, err := warm.Run(m, "main", "run", 0); err != nil {
		t.Fatalf("running disk-cached build: %v", err)
	}
}

// TestParallelCompileDeterminism: -j1 and -jN builds must produce
// byte-identical objects and identical schedules.
func TestParallelCompileDeterminism(t *testing.T) {
	serialOpts := logServeOptions()
	serialOpts.Parallelism = 1
	serial, err := Build(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 8} {
		opts := logServeOptions()
		opts.Parallelism = par
		res, err := Build(opts)
		if err != nil {
			t.Fatalf("-j %d: %v", par, err)
		}
		if got, want := asm.Format(res.Object), asm.Format(serial.Object); got != want {
			t.Errorf("-j %d object differs from -j 1", par)
		}
	}
}

// TestParallelCompileError: a compile error under parallelism must be
// reported deterministically (lowest job first) and fail the build.
func TestParallelCompileError(t *testing.T) {
	opts := logServeOptions()
	broken := map[string]string{}
	for k, v := range logServeSources {
		broken[k] = v
	}
	broken["log.c"] = `int serve_logged(int s, char *path) { return undefined_helper(); }`
	broken["web.c"] = `int serve_web(int s, char *path) { return also_missing(); }`
	opts.Sources = broken
	opts.Parallelism = 8
	want := ""
	for i := 0; i < 5; i++ {
		_, err := Build(opts)
		if err == nil {
			t.Fatal("build of broken sources succeeded")
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("nondeterministic error under -j 8:\n  %s\nvs\n  %s", want, err.Error())
		}
	}
}

// TestCacheConcurrentWriters races several independent Cache instances
// (as separate knit processes would be) over one backing directory,
// all building the same program at once. Entry writes go through a
// temp-file rename, so whatever interleaving happens, a reader must
// only ever see absent or complete entries — and the final warm build
// must be served entirely from disk, identical to a cold build.
func TestCacheConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	ref, err := Build(logServeOptions())
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	objs := make([]string, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := OpenCache(dir) // one instance per "process"
			if err != nil {
				errs[w] = err
				return
			}
			opts := logServeOptions()
			opts.Cache = c
			res, err := Build(opts)
			if err != nil {
				errs[w] = err
				return
			}
			objs[w] = asm.Format(res.Object)
		}(w)
	}
	wg.Wait()
	want := asm.Format(ref.Object)
	for w := 0; w < writers; w++ {
		if errs[w] != nil {
			t.Fatalf("writer %d: %v", w, errs[w])
		}
		if objs[w] != want {
			t.Errorf("writer %d built a different object", w)
		}
	}

	// A fresh cache over the racily written directory serves everything.
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := logServeOptions()
	opts.Cache = c
	warm, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timings.CacheHits != warm.Timings.CompileJobs {
		t.Errorf("after concurrent writers, warm build hit %d of %d jobs",
			warm.Timings.CacheHits, warm.Timings.CompileJobs)
	}
	if asm.Format(warm.Object) != want {
		t.Error("object rebuilt from racily written cache differs")
	}
}

// TestCacheFrontEndParsesOnce: builds sharing a cache parse each
// distinct file once. A warm rebuild adds nothing to the cache's front
// end and elaborates the very unit trees the cold build parsed; a build
// without the cache parses its own.
func TestCacheFrontEndParsesOnce(t *testing.T) {
	cache := NewCache()
	for _, base := range []Options{logServeOptions(), asmOptions()} {
		opts := base
		opts.Cache = cache
		cold, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		parsed := cache.FrontEnd().Len()
		warm, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := cache.FrontEnd().Len(); got != parsed {
			t.Errorf("%s: warm rebuild grew the front end from %d to %d files", opts.Top, parsed, got)
		}
		for name, u := range cold.Program.Registry.Units {
			if warm.Program.Registry.Units[name] != u {
				t.Errorf("%s: warm rebuild parsed unit %s again", opts.Top, name)
			}
		}
		plain, err := Build(base)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Program.Top == cold.Program.Top {
			t.Errorf("%s: a build without the cache elaborated the cache's trees", opts.Top)
		}
	}
	// LogServe's unit file and sources, then the assembly program's.
	if want := 1 + len(logServeSources) + 1 + len(asmSources); cache.FrontEnd().Len() != want {
		t.Errorf("front end holds %d files, want %d", cache.FrontEnd().Len(), want)
	}
}

// TestCacheConcurrentBuildsShareFrontEnd runs builds of several
// configurations at once on one cache, so they race on its parsed trees
// and compiled objects; every build must still produce its plain
// build's object. Run it under -race.
func TestCacheConcurrentBuildsShareFrontEnd(t *testing.T) {
	var configs []Options
	for _, base := range []Options{logServeOptions(), asmOptions()} {
		for _, flatten := range []bool{false, true} {
			opts := base
			opts.Optimize, opts.Flatten = flatten, flatten
			configs = append(configs, opts)
		}
	}
	want := make([]string, len(configs))
	for i, opts := range configs {
		res, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = asm.Format(res.Object)
	}
	cache := NewCache()
	const rounds = 3
	errs := make([]error, rounds*len(configs))
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := configs[i%len(configs)]
			opts.Cache = cache
			opts.Parallelism = 2
			res, err := Build(opts)
			if err != nil {
				errs[i] = err
			} else if asm.Format(res.Object) != want[i%len(configs)] {
				errs[i] = fmt.Errorf("configuration %d built a different object on the shared cache", i%len(configs))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
