// Package build is the end-to-end Knit pipeline driver: it sequences
// unit-file parsing, hierarchical linking, constraint checking,
// initializer scheduling, optional cross-component flattening,
// compilation, image linking, and machine loading — the "parse -> link ->
// check -> schedule -> compile -> image" chain every tool and example in
// this repository drives (paper §2.3, §3.2, §4, §6).
//
// Build is deterministic: the same Options produce the same Program,
// Schedule, Object, and Image. Each phase's wall time is recorded in
// Result.Timings, which reproduces the paper's §6 build-time breakdown
// (most time in the compiler and loader, constraint checking a
// significant multiplier on Knit-proper time).
package build

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/knit/constraint"
	"knit/internal/knit/flatten"
	"knit/internal/knit/link"
	"knit/internal/knit/sched"
	"knit/internal/ldlink"
	"knit/internal/machine"
	"knit/internal/obj"
)

// Options selects what to build and how.
type Options struct {
	// Top is the unit to elaborate; it must export everything the caller
	// wants to run and have no unsatisfied imports.
	Top string
	// UnitFiles maps unit-definition file names to their text. Files are
	// parsed in sorted name order, so a build is independent of map
	// iteration order.
	UnitFiles map[string]string
	// Sources is the virtual filesystem for the files{} sections of
	// atomic units: file name -> cmini (or, for ".s" names, assembly)
	// source text.
	Sources link.Sources
	// Check runs the §4 constraint checker after linking; a violation
	// aborts the build. When false, Result.ConstraintReport is nil and
	// even ill-constrained configurations build (the paper's checks are
	// opt-in per build).
	Check bool
	// Optimize enables the compiler's -O passes (constant folding, CSE,
	// dead code, intra-file inlining).
	Optimize bool
	// Flatten merges unit sources into one compilation unit before
	// compiling, so the intra-file optimizer can work across component
	// boundaries (§6). Assembly files are never flattened; they always
	// link as renamed objects.
	Flatten bool
	// FlattenFilter, when non-nil, limits flattening to instances for
	// which it returns true; the rest compile separately. Nil flattens
	// every instance. Ignored unless Flatten is set ("flatten only the
	// router rather than the entire kernel").
	FlattenFilter func(*link.Instance) bool
	// InlineLimit is the optimizer's maximum callee size in IR
	// instructions (0 = default, negative disables inlining).
	InlineLimit int
	// GrowthLimit caps a function's post-inlining size (0 = default).
	GrowthLimit int
	// DisableCSE turns off value numbering, for ablation studies.
	DisableCSE bool
	// Costs is the simulated machine's cost model; the zero value means
	// machine.DefaultCosts().
	Costs machine.Costs
	// Cache memoizes parsed sources and compiled translation units by
	// content (see Cache); nil builds on a private in-memory cache. A
	// warm rebuild of an unchanged program on a shared cache skips every
	// parse and every compile — and, for a flattened region, the merge
	// too — leaving elaboration, checking, linking and loading. The
	// Result keeps the cache, and its live operations (LoadDynamic,
	// SwapFallback, LoadElaborated, reconfigure's Diff and Apply) parse
	// and compile through it.
	Cache *Cache
	// Parallelism bounds the number of concurrent compile workers:
	// 0 means GOMAXPROCS, 1 forces serial compilation. Independent
	// translation units compile in parallel; output ordering (and thus
	// the built Object and Image) is identical at every setting.
	Parallelism int
	// Backend selects the execution engine for machines created from
	// the Result (NewMachine/NewMachineFrom): the cycle-accounting
	// interpreter (default) or the compiled backend. The built
	// Image is identical either way; only execution speed and the
	// I-cache stall model differ.
	Backend machine.Backend
}

// compileOptions derives the compiler configuration from build options.
func (o *Options) compileOptions() compile.Options {
	return compile.Options{
		Opt:         o.Optimize,
		InlineLimit: o.InlineLimit,
		GrowthLimit: o.GrowthLimit,
		DisableCSE:  o.DisableCSE,
	}
}

// Build runs the full pipeline and returns the built system.
func Build(opts Options) (*Result, error) {
	if opts.Top == "" {
		return nil, fmt.Errorf("knit: build needs a top unit")
	}
	if len(opts.UnitFiles) == 0 {
		return nil, fmt.Errorf("knit: build needs at least one unit file")
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}
	res := &Result{copts: opts.compileOptions(), sources: opts.Sources, cache: cache, Backend: opts.Backend}
	fe := cache.FrontEnd()

	// Parse the unit-definition files.
	start := time.Now()
	files, err := fe.ParseUnitFiles(opts.UnitFiles)
	res.Timings.Parse = time.Since(start)
	if err != nil {
		return nil, err
	}

	// Elaborate the linking graph into a flat instance set.
	start = time.Now()
	reg, err := link.NewRegistry(files...)
	if err != nil {
		return nil, err
	}
	prog, err := link.Elaborate(reg, opts.Top, opts.Sources, fe)
	res.Timings.Elaborate = time.Since(start)
	if err != nil {
		return nil, err
	}
	res.Program = prog

	// Constraint fixpoint (§4), on request.
	if opts.Check {
		start = time.Now()
		report, err := constraint.Check(prog)
		res.Timings.Check = time.Since(start)
		if err != nil {
			return nil, err
		}
		res.ConstraintReport = report
	}

	// Initializer/finalizer schedule (§3.2).
	start = time.Now()
	schedule, err := sched.Compute(prog)
	res.Timings.Schedule = time.Since(start)
	if err != nil {
		return nil, err
	}
	res.Schedule = schedule

	// Optional flattening (§6): choose the region whose sources merge
	// into one translation unit. The merge runs as that unit's compile
	// job, behind its cache lookup, so a warm build skips it and builds
	// racing on one region merge it once.
	instances := prog.SortedInstances()
	var region, modular []*link.Instance
	if opts.Flatten {
		for _, inst := range instances {
			if opts.FlattenFilter == nil || opts.FlattenFilter(inst) {
				region = append(region, inst)
			} else {
				modular = append(modular, inst)
			}
		}
	} else {
		modular = instances
	}

	// Compile: one translation unit per source file — or one big one for
	// the flattened region — so optimization crosses component boundaries
	// exactly when flattening says it may. Translation units are
	// independent, so they compile concurrently on a bounded worker
	// pool; results keep task order, so the linked output is identical
	// at every Parallelism setting.
	start = time.Now()
	var jobs []compileJob
	if len(region) > 0 {
		jobs = append(jobs, compileJob{label: "flattened region", region: region})
	}
	for _, inst := range modular {
		jobs = fileJobs(jobs, inst)
	}
	objs, hits, err := runCompileJobs(jobs, res.copts, cache, opts.Parallelism)
	for _, job := range jobs {
		res.Timings.Flatten += job.merge
	}
	res.Timings.CompileJobs = len(jobs)
	res.Timings.CacheHits = hits
	if err != nil {
		res.Timings.Compile = time.Since(start) - res.Timings.Flatten
		return nil, err
	}
	var items []ldlink.Item
	for _, o := range objs {
		items = append(items, ldlink.Obj(o))
	}
	// Assembly objects link as-is for every instance, flattened or not.
	for _, inst := range instances {
		for _, o := range inst.Objects {
			items = append(items, ldlink.Obj(o))
		}
	}
	res.Timings.Compile = time.Since(start) - res.Timings.Flatten

	// Link the image. Instance renaming made all globals unique, so only
	// ambient device symbols may remain undefined.
	start = time.Now()
	object, err := ldlink.Link(items, ldlink.Options{
		AllowUndefined: []string{link.AmbientPrefix + "*"},
	})
	res.Timings.Link = time.Since(start)
	if err != nil {
		return nil, err
	}
	res.Object = object

	// Load: place data and text, resolve addresses, fix the cost model.
	start = time.Now()
	costs := opts.Costs
	if costs == (machine.Costs{}) {
		costs = machine.DefaultCosts()
	}
	img, err := machine.Load(object, costs)
	res.Timings.Load = time.Since(start)
	if err != nil {
		return nil, err
	}
	// Link-time symbol map: lets the machine attribute runtime traps to
	// the unit instance owning the faulting function.
	img.SymbolOwner = prog.SymbolOwners()
	res.Image = img
	return res, nil
}

// compileJob is one translation unit to compile, with a diagnostic
// label: an instance's C file, or a flattened region to merge.
type compileJob struct {
	label  string
	inst   *link.Instance
	file   int // index into inst.Files
	region []*link.Instance
	merge  time.Duration // how long merging the region took, if this job merged it
}

// fileJobs appends a job for each of inst's C files to jobs.
func fileJobs(jobs []compileJob, inst *link.Instance) []compileJob {
	for i := range inst.Files {
		jobs = append(jobs, compileJob{label: inst.Path, inst: inst, file: i})
	}
	return jobs
}

// key is the job's cache key.
func (job *compileJob) key(copts compile.Options) string {
	if job.region != nil {
		return regionKey(copts, job.region)
	}
	return fileKey(copts, job.inst.Files[job.file].Name, job.inst.Origins[job.file])
}

// compile renames the job's sources, merges its region if it has one,
// and compiles the translation unit. It runs only on a cache miss, so a
// build served from the cache renames nothing.
func (job *compileJob) compile(copts compile.Options) (*obj.File, error) {
	var f *cmini.File
	if job.region != nil {
		files := renamedFiles(job.region)
		start := time.Now()
		merged, err := flatten.Merge("flattened.c", job.region, files)
		job.merge = time.Since(start)
		if err != nil {
			return nil, err
		}
		f = merged
	} else {
		f = job.inst.RenamedFile(job.file)
	}
	o, err := compile.Compile(f, copts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", job.label, err)
	}
	return o, nil
}

// renamedFiles returns each instance's renamed C files, as flatten.Merge
// reads them.
func renamedFiles(instances []*link.Instance) [][]*cmini.File {
	out := make([][]*cmini.File, len(instances))
	for k, inst := range instances {
		for i := range inst.Files {
			out[k] = append(out[k], inst.RenamedFile(i))
		}
	}
	return out
}

// runCompileJobs compiles every job through cache, with up to par
// concurrent workers (0 = GOMAXPROCS). A job's cache key is hashed on
// its worker. The returned objects are in job order
// regardless of completion order, and on failure the error is the
// lowest-indexed job's — both so that the build is deterministic at
// any parallelism. The returned count is how many jobs were served
// from the cache.
func runCompileJobs(jobs []compileJob, copts compile.Options, cache *Cache, par int) ([]*obj.File, int, error) {
	if len(jobs) == 0 {
		return nil, 0, nil
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(jobs) {
		par = len(jobs)
	}
	objs := make([]*obj.File, len(jobs))
	errs := make([]error, len(jobs))
	var hits atomic.Int64
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				job := &jobs[i]
				o, hit, err := cache.object(job.key(copts), func() (*obj.File, error) { return job.compile(copts) })
				if hit {
					hits.Add(1)
				}
				objs[i], errs[i] = o, err
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, int(hits.Load()), err
		}
	}
	return objs, int(hits.Load()), nil
}

// SourceOf merges the instance-renamed cmini sources of the program's
// instances — all of them, or those passing filter — into one
// flattened translation unit and returns it as source text. It is the
// "-dump-flat" view: what the compiler would see under Options.Flatten.
func SourceOf(prog *link.Program, filter func(*link.Instance) bool) (string, error) {
	var region []*link.Instance
	for _, inst := range prog.SortedInstances() {
		if filter == nil || filter(inst) {
			region = append(region, inst)
		}
	}
	merged, err := flatten.Merge("flattened.c", region, renamedFiles(region))
	if err != nil {
		return "", err
	}
	return cmini.Print(merged), nil
}
