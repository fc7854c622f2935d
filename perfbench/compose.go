package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"knit/internal/clack"
	"knit/internal/knit/assemble"
	"knit/internal/knit/build"
	"knit/internal/machine"
	"knit/internal/oskit"
)

// setupReps is how many times every workload repeats its set-up. Single
// set-ups on the shared 2-core host vary by half; the median of many is
// what keeps setup_s steady.
const setupReps = 31

// setupTimes is a workload's repeated set-up timings.
type setupTimes struct {
	wall, cpu []time.Duration
}

// measure runs one set-up and records its wall and process CPU time.
func (s *setupTimes) measure(setup func() error) error {
	runtime.GC()
	wall, cpu := time.Now(), cpuTime()
	if err := setup(); err != nil {
		return err
	}
	s.cpu = append(s.cpu, cpuTime()-cpu)
	s.wall = append(s.wall, time.Since(wall))
	return nil
}

// report sets setup_s to the median set-up's process CPU time: it counts
// all the work set-up does, the collector's included, but not the time
// the hypervisor gives the processors to other guests, which moved the
// wall time's median by up to a third. The wall median is kept as raw.
func (s *setupTimes) report(out *outcome) {
	out.set("setup_s", "s", medianDur(s.cpu, time.Second))
	out.raw["setup_s"] = medianDur(s.wall, time.Second)
}

// enumerateK is how many distinct kernels compose asks the assembler for.
const enumerateK = 12

// goalFile is the committed goal compose assembles, relative to the
// repository root the benchmark runs from.
var goalFile = filepath.Join("examples", "assemble", "src", "main.goal")

// composeEnv is compose's set-up: the cost-model trace and builds, and
// the assembly goal over the OSKit repository.
type composeEnv struct {
	tr   *traffic
	r    *routers
	goal *assemble.Goal
	repo assemble.Repo
}

func setupCompose(seed int64) (*composeEnv, error) {
	data, err := os.ReadFile(goalFile)
	if err != nil {
		return nil, err
	}
	goal, err := assemble.ParseGoal(filepath.Base(goalFile), string(data))
	if err != nil {
		return nil, err
	}
	spec := clack.DefaultFlowTraffic(costPackets)
	spec.Seed = seed
	e := &composeEnv{tr: newTraffic(spec), goal: goal, repo: oskit.Repository()}
	if e.r, err = buildRouters(false); err != nil {
		return nil, err
	}
	return e, nil
}

// imageSig fingerprints a built image: a rebuild of the same program
// must reproduce it exactly.
func imageSig(res *build.Result) [4]int64 {
	var sum int64
	for _, a := range res.Image.FuncAddr {
		sum += a
	}
	return [4]int64{res.Image.TextSize, int64(res.Image.DataWords), int64(len(res.Image.FuncAddr)), sum}
}

// composePass is one timed run of the compose loop.
type composePass struct {
	elapsed                time.Duration
	rounds                 []time.Duration
	steal                  float64 // share of processor time stolen during the pass
	cold, warm, flat, asm  []time.Duration
	pairs                  [][2]build.Timings
	config                 []time.Duration
	hits, jobs, assemblies int
	steps, failed          int
	spans                  []span
}

func (p *composePass) fail(out *outcome, format string, args ...any) {
	p.failed++
	out.problem(format, args...)
}

// loop repeats the developer's four steps until the time is up: a cold
// modular build, a warm rebuild on its cache, a cold flattened build,
// and enumerating the goal's cheapest kernels. Every output is checked
// against the set-up's builds and the first round's assemblies.
func (e *composeEnv) loop(seconds float64, traced bool, out *outcome) *composePass {
	p := &composePass{}
	var ref []*assemble.Assembly
	steal := hostCPU()
	base := time.Now()
	clock := since(base)
	dur := time.Duration(seconds * float64(time.Second))
	for round := int32(1); time.Since(base) < dur; round++ {
		t0 := clock()
		cache := build.NewCache()
		cold, errCold := buildRouter(clack.Variant{}, cache, machine.BackendInterp)
		t1 := clock()
		warm, errWarm := buildRouter(clack.Variant{}, cache, machine.BackendInterp)
		t2 := clock()
		flat, errFlat := buildRouter(clack.Variant{Flattened: true}, build.NewCache(), machine.BackendInterp)
		t3 := clock()
		asm, errAsm := assemble.Enumerate(e.repo, e.goal, enumerateK, assemble.Options{})
		t4 := clock()
		p.steps += 4
		p.rounds = append(p.rounds, time.Duration(t4-t0))
		if traced {
			p.spans = append(p.spans,
				span{round, "build.cold", t0, t1}, span{round, "build.warm", t1, t2},
				span{round, "build.flat", t2, t3}, span{round, "assemble", t3, t4})
		}
		for _, err := range []error{errCold, errWarm, errFlat, errAsm} {
			if err != nil {
				p.fail(out, "round %d: %v", round, err)
			}
		}
		if errCold == nil && errFlat == nil {
			p.cold = append(p.cold, time.Duration(t1-t0))
			p.flat = append(p.flat, time.Duration(t3-t2))
			p.pairs = append(p.pairs, [2]build.Timings{cold.Timings, flat.Timings})
			if imageSig(cold) != imageSig(e.r.modular) || imageSig(flat) != imageSig(e.r.flat) {
				p.fail(out, "round %d: cold build differs from the set-up's", round)
			}
		}
		if errWarm == nil {
			p.warm = append(p.warm, time.Duration(t2-t1))
			p.hits += warm.Timings.CacheHits
			p.jobs += warm.Timings.CompileJobs
			if warm.Timings.CacheHits != warm.Timings.CompileJobs || imageSig(warm) != imageSig(e.r.modular) {
				p.fail(out, "round %d: warm rebuild missed the cache or changed the image", round)
			}
		}
		if errAsm == nil {
			p.asm = append(p.asm, time.Duration(t4-t3))
			if ref == nil {
				if err := checkAssemblies(asm); err != nil {
					p.fail(out, "round %d: %v", round, err)
				}
				ref = asm
				p.assemblies = len(asm)
			} else if !sameAssemblies(ref, asm) {
				p.fail(out, "round %d: assemblies differ from round 1's", round)
			}
		}
		if d, err := timeConfig(); err == nil {
			p.config = append(p.config, d)
		} else {
			p.fail(out, "round %d: config: %v", round, err)
		}
	}
	p.elapsed = time.Since(base)
	p.steal = steal.since()
	return p
}

// checkAssemblies holds an enumeration to its contract: k distinct,
// verified kernels, cheapest first.
func checkAssemblies(as []*assemble.Assembly) error {
	if len(as) != enumerateK {
		return fmt.Errorf("enumerated %d assemblies, want %d", len(as), enumerateK)
	}
	seen := map[string]bool{}
	for i, a := range as {
		if a.Result == nil || seen[a.Text] {
			return fmt.Errorf("assembly %d unverified or duplicated", i)
		}
		seen[a.Text] = true
		if i > 0 && a.Cost.Score() < as[i-1].Cost.Score() {
			return fmt.Errorf("assembly %d is cheaper than assembly %d", i, i-1)
		}
	}
	return nil
}

func sameAssemblies(a, b []*assemble.Assembly) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Text != b[i].Text || a[i].Cost != b[i].Cost {
			return false
		}
	}
	return true
}

func runCompose(c config) (*outcome, error) {
	out := newOutcome()
	var st setupTimes
	var env *composeEnv
	for i := 0; i < setupReps; i++ {
		err := st.measure(func() (err error) {
			env, err = setupCompose(c.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	st.report(out)
	if err := costModel(env.r, env.tr, out); err != nil {
		return nil, err
	}
	runtime.GC()
	p := env.loop(c.seconds, false, out)
	out.attempted += p.steps
	out.failed += p.failed
	if c.trace {
		untraced := p
		runtime.GC()
		p = env.loop(c.seconds, true, out)
		out.attempted += p.steps
		out.failed += p.failed
		out.set("trace.overhead_frac", "frac",
			1-ratio(p.opsPerSec()/(1-p.steal), untraced.opsPerSec()/(1-untraced.steal)))
		path, err := writeSpans(fmt.Sprintf("compose-seed%d.jsonl", c.seed), analyzeSpans(p.spans, out))
		if err != nil {
			return nil, err
		}
		out.detail["spans_file"] = path
		if err := machineWall(env.r.modular, env.tr, 1024, 5, out); err != nil {
			return nil, err
		}
	}
	if len(p.rounds) == 0 {
		return nil, fmt.Errorf("no compose round finished")
	}
	rounds := make([]int64, len(p.rounds))
	for i, d := range p.rounds {
		rounds[i] = int64(d)
	}
	stealFree(out, p.opsPerSec(), percentile(rounds, 90)/1e3, p.steal)
	out.set("goodput_frac", "frac", 1-ratio(float64(p.failed), float64(p.steps)))
	out.detail["backend"] = "interp"
	out.detail["latency_mean_us"] = float64(mean(rounds)) / 1e3
	out.detail["latency_p50_us"] = percentile(rounds, 50) / 1e3
	out.detail["op"] = "compose round"
	out.detail["rounds"] = len(p.rounds)
	out.detail["build_cold_ms"] = medianDur(p.cold, time.Millisecond)
	out.detail["build_warm_ms"] = medianDur(p.warm, time.Millisecond)
	out.detail["build_flat_ms"] = medianDur(p.flat, time.Millisecond)
	out.detail["assemble_ms"] = medianDur(p.asm, time.Millisecond)

	reportBuild(out, p.pairs, p.config)
	out.set("build.cache_hit_ratio", "frac", ratio(float64(p.hits), float64(p.jobs)))
	out.set("assemble.assemblies", "count", float64(p.assemblies))
	idleServing(out)
	return out, nil
}

func opsPerSec(n int, d time.Duration) float64 { return ratio(float64(n), d.Seconds()) }

// opsPerSec is compose rounds per second of round time.
func (p *composePass) opsPerSec() float64 {
	var total time.Duration
	for _, d := range p.rounds {
		total += d
	}
	return opsPerSec(len(p.rounds), total)
}
