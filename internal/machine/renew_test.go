package machine

import (
	"fmt"
	"sync"
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// deepProgram: deep(n) stores n in its frame and recurses to depth n,
// returning n(n+1)/2, so a deep call leaves nonzero words down the
// simulated stack and grows the register arena. The image also holds a
// 64-word global and the functions one and two, to interpose.
func deepProgram() *obj.File {
	f := fileWith(
		buildFunc("deep", 1, 40, 4, []obj.Instr{
			{Op: obj.OpAddrLocal, Dst: 1, Imm: 3},
			{Op: obj.OpStore, A: 1, B: 0}, // frame[3] = n
			{Op: obj.OpBranch, A: 0, Targets: [2]int{4, 3}},
			{Op: obj.OpRet, A: 0, HasVal: true}, // n == 0
			{Op: obj.OpConst, Dst: 2, Imm: 1},
			{Op: obj.OpBin, Dst: 2, A: 0, B: 2, Tok: int(cmini.MINUS)},
			{Op: obj.OpCall, Dst: 3, Sym: "deep", Args: []obj.Reg{2}},
			{Op: obj.OpBin, Dst: 3, A: 3, B: 0, Tok: int(cmini.PLUS)},
			{Op: obj.OpRet, A: 3, HasVal: true},
		}),
		constFunc("one", 1),
		constFunc("two", 2),
	)
	f.Datas["big"] = &obj.Data{Name: "big", Size: 64, Init: []obj.DataInit{{Offset: 63, Kind: obj.InitConst, Val: 9}}}
	f.AddSym(&obj.Symbol{Name: "big", Kind: obj.SymData, Defined: true})
	return f
}

// usedMachine returns a machine on deepProgram's image that has left a
// trace of everything a machine keeps: a deep call, a dynamic module
// loaded and unloaded and another kept, a redirect, a builtin and
// hooks. It returns the snapshot it took last too.
func usedMachine(t *testing.T, be Backend) (*M, *Snapshot) {
	t.Helper()
	old := loadFile(t, deepProgram())
	old.SetBackend(be)
	old.RegisterBuiltin("__nop", func(*M, []int64) (int64, error) { return 0, nil })
	old.PreRun = func(string) error { return nil }
	old.PostCall = func(CallInfo) {}
	if v, err := old.Run("deep", 200); err != nil || v != 20100 {
		t.Fatalf("deep(200) = %d, %v; want 20100", v, err)
	}
	if len(old.regStack) <= 256 {
		t.Fatalf("deep(200) left a register arena of %d words; want it grown", len(old.regStack))
	}
	for _, mod := range []string{"gone", "kept"} {
		if err := old.LoadDynamicAs(mod, mod, identityModule(mod+"_id")); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.UnloadDynamic("gone"); err != nil {
		t.Fatal(err)
	}
	if err := old.Interpose("one", "two"); err != nil {
		t.Fatal(err)
	}
	return old, old.Snapshot()
}

// counters lists a machine's statistics.
func counters(m *M) [8]int64 {
	return [8]int64{m.Cycles, m.Stalls, m.Executed, m.Calls, m.IndCalls, m.BuiltinCnt, m.ICacheRefs, m.ICacheMiss}
}

// TestRenewMatchesNew: a machine renewed from a used one onto another
// image (built by New on the memory, I-cache tags and frame arenas the
// used one gave back with Release) is the machine New gives for that
// image on fresh memory — the same memory, stack and state, zero
// counters, no modules, redirects, builtins or hooks, its own serial —
// and it runs the image's program to the same value and counters, on
// both engines. The released buffer is rewritten in place when it
// holds the image, and a larger one is allocated when not; the
// released machine is left empty. (Under the race detector sync.Pool
// drops some of what it is given, so reuse is not asserted there.)
func TestRenewMatchesNew(t *testing.T) {
	huge := memProgram()
	huge.Datas["huge"] = &obj.Data{Name: "huge", Size: 1 << 17}
	huge.AddSym(&obj.Symbol{Name: "huge", Kind: obj.SymData, Defined: true})
	for _, be := range []Backend{BackendInterp, BackendCompiled} {
		for _, tc := range []struct {
			name    string
			f       *obj.File
			inPlace bool
		}{{"fits", memProgram(), true}, {"outgrows", huge, false}} {
			t.Run(be.String()+"/"+tc.name, func(t *testing.T) {
				old, _ := usedMachine(t, be)
				oldSerial, oldBuf, oldRegs := old.serial, &old.Mem[:1][0], &old.regStack[0]
				img, err := Load(tc.f, DefaultCosts())
				if err != nil {
					t.Fatal(err)
				}
				fresh := New(img)
				fresh.SetBackend(be)
				old.Release()
				m := New(img)
				m.SetBackend(be)
				if old.Img != nil || old.Mem != nil || old.regStack != nil || old.serial != 0 {
					t.Error("released machine keeps its image, memory, arenas or serial")
				}
				if !raceEnabled {
					if got := &m.Mem[:1][0] == oldBuf; got != tc.inPlace {
						t.Errorf("renewed in place = %v, want %v", got, tc.inPlace)
					}
					if &m.regStack[0] != oldRegs {
						t.Error("renewed machine did not take the released register arena")
					}
				}
				if err := m.StateEqual(fresh.Snapshot()); err != nil {
					t.Errorf("renewed state differs from New's: %v", err)
				}
				if m.Img != img || m.Costs != img.costs || m.nextIndex != len(img.funcs) {
					t.Errorf("renewed machine has image %p, costs %+v, next index %d", m.Img, m.Costs, m.nextIndex)
				}
				if c := counters(m); c != ([8]int64{}) {
					t.Errorf("renewed counters = %v, want zero", c)
				}
				if mods := m.DynModules(); len(mods) != 0 || m.redirect != nil || len(m.Builtins) != 0 {
					t.Errorf("renewed machine keeps modules %v, redirects %v, builtins %d", mods, m.redirect, len(m.Builtins))
				}
				if m.PreRun != nil || m.PreCall != nil || m.PostCall != nil {
					t.Error("renewed machine keeps hooks")
				}
				if m.serial == oldSerial || m.serial == fresh.serial {
					t.Errorf("renewed serial %d, old %d, fresh %d; want its own", m.serial, oldSerial, fresh.serial)
				}
				vf, ef := fresh.Run("memops")
				vm, em := m.Run("memops")
				if ef != nil || em != nil || vf != vm {
					t.Errorf("memops: new (%d, %v), renewed (%d, %v)", vf, ef, vm, em)
				}
				if cf, cm := counters(fresh), counters(m); cf != cm {
					t.Errorf("memops counters: new %v, renewed %v", cf, cm)
				}
				if err := m.StateEqual(fresh.Snapshot()); err != nil {
					t.Errorf("after memops: %v", err)
				}
			})
		}
	}
}

// TestRenewDrawsFreshIndices: a machine renewed onto its own image is a
// new machine, so a snapshot from the released one gives the kept
// module's function a fresh index there, as it does on New's machine,
// and runs the same.
func TestRenewDrawsFreshIndices(t *testing.T) {
	for _, be := range []Backend{BackendInterp, BackendCompiled} {
		old, snap := usedMachine(t, be)
		img := old.Img
		oldIndex := callIndices(t, old, "kept_id", 5)["kept_id"]
		fresh := New(img)
		fresh.SetBackend(be)
		fresh.Restore(snap)
		old.Release()
		m := New(img)
		m.SetBackend(be)
		m.Restore(snap)
		want := callIndices(t, fresh, "kept_id", 5)["kept_id"]
		if got := callIndices(t, m, "kept_id", 5)["kept_id"]; got != want || got == oldIndex {
			t.Errorf("%v: restored kept_id has index %d on the renewed machine, %d on New's, %d on the released one",
				be, got, want, oldIndex)
		}
		for _, x := range []*M{fresh, m} {
			if v, err := x.Run("one"); err != nil || v != 2 {
				t.Errorf("%v: one() after restore = %d, %v; want the redirect to two", be, v, err)
			}
		}
		if err := m.StateEqual(fresh.Snapshot()); err != nil {
			t.Errorf("%v: %v", be, err)
		}
		if cf, cm := counters(fresh), counters(m); cf != cm {
			t.Errorf("%v: counters: new %v, renewed %v", be, cf, cm)
		}
	}
}

// TestReleasedMachinePanics: a released machine is empty, so running it
// panics, on both engines, instead of reading or writing memory that a
// later machine now owns.
func TestReleasedMachinePanics(t *testing.T) {
	for _, be := range []Backend{BackendInterp, BackendCompiled} {
		m, _ := usedMachine(t, be)
		m.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: Run on a released machine did not panic", be)
				}
			}()
			m.Run("deep", 3)
		}()
	}
}

// TestReleaseConcurrentMachines: workers that release machines and draw
// new ones at once, as assembly verification does, each get a machine
// of their own. Every new machine must hold exactly the image's initial
// data, and every run its own result; under the race detector, two
// machines on one buffer are a reported race.
func TestReleaseConcurrentMachines(t *testing.T) {
	img, err := Load(deepProgram(), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	want := New(img).Snapshot()
	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m := New(img)
				if r%2 == 1 {
					m.SetBackend(BackendCompiled)
				}
				if err := m.StateEqual(want); err != nil {
					errs <- fmt.Errorf("worker %d round %d: new machine: %v", w, r, err)
					return
				}
				n := int64(10 + w + r)
				if v, err := m.Run("deep", n); err != nil || v != n*(n+1)/2 {
					errs <- fmt.Errorf("worker %d round %d: deep(%d) = %d, %v", w, r, n, v, err)
					return
				}
				if err := m.WriteWords(m.StackLimit()-1, []int64{int64(w)}); err != nil {
					errs <- err
					return
				}
				m.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
