package machine

import (
	"fmt"
	"sync"
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// TestSharedImageConcurrentMachines is the regression net for the Image
// sharing contract (see the Image doc comment): many machines run off
// one image at once, each exercising the per-machine mutable surface —
// memory, dynamic loads, interposition, snapshots — while the image is
// only read. Run with -race; a violation of the contract (any post-Load
// image mutation) shows up as a data race here.
func TestSharedImageConcurrentMachines(t *testing.T) {
	f := fileWith(
		buildFunc("bump", 0, 3, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "counter", A: obj.NoReg},
			{Op: obj.OpLoad, Dst: 2, A: 1},
			{Op: obj.OpConst, Dst: 0, Imm: 1},
			{Op: obj.OpBin, Dst: 2, A: 2, B: 0, Tok: int(cmini.PLUS)},
			{Op: obj.OpStore, A: 1, B: 2},
			{Op: obj.OpRet, A: 2, HasVal: true},
		}),
		buildFunc("orig", 0, 1, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 0, Imm: 1},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}),
	)
	f.Datas["counter"] = &obj.Data{Name: "counter", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: 0}}}
	f.AddSym(&obj.Symbol{Name: "counter", Kind: obj.SymData, Defined: true})

	img, err := Load(f, DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// The build layer's one sanctioned post-Load write, done before any
	// machine exists.
	img.SymbolOwner = map[string]string{"bump": "Top/Bump#1", "orig": "Top/Orig#2"}

	const machines, rounds = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < machines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := New(img)
			// Per-machine dynamic module: exercises the image-reading
			// side of LoadDynamic concurrently with sibling machines.
			mod := obj.NewFile("mod")
			mod.Funcs["repl"] = &obj.Func{Name: "repl", NArgs: 0, NRegs: 1, Code: []obj.Instr{
				{Op: obj.OpConst, Dst: 0, Imm: int64(100 + id)},
				{Op: obj.OpRet, A: 0, HasVal: true},
			}}
			mod.AddSym(&obj.Symbol{Name: "repl", Kind: obj.SymFunc, Defined: true})
			if err := m.LoadDynamic(mod); err != nil {
				t.Errorf("machine %d: LoadDynamic: %v", id, err)
				return
			}
			if err := m.Interpose("orig", "repl"); err != nil {
				t.Errorf("machine %d: Interpose: %v", id, err)
				return
			}
			snap := m.Snapshot()
			for r := 0; r < rounds; r++ {
				if _, err := m.Run("bump"); err != nil {
					t.Errorf("machine %d: bump: %v", id, err)
					return
				}
			}
			v, err := m.Run("bump")
			if err != nil {
				t.Errorf("machine %d: bump: %v", id, err)
				return
			}
			if v != rounds+1 {
				t.Errorf("machine %d: counter = %d, want %d (data bled across machines?)", id, v, rounds+1)
			}
			if v, err := m.Run("orig"); err != nil || v != int64(100+id) {
				t.Errorf("machine %d: interposed orig = %d, %v; want %d", id, v, err, 100+id)
			}
			// Restore rewinds this machine only: its counter, its
			// redirects, its dynamic modules.
			m.Restore(snap)
			if v, err := m.Run("bump"); err != nil || v != 1 {
				t.Errorf("machine %d: post-restore counter = %d, %v; want 1", id, v, err)
			}
			if owner := m.OwnerOf("bump"); owner != "Top/Bump#1" {
				t.Errorf("machine %d: OwnerOf(bump) = %q", id, owner)
			}
		}(i)
	}
	wg.Wait()
}

// TestSharedImageConcurrentCompiledMachines runs the same shared-image
// contract with a mixed fleet: half the machines on the compiled
// backend, half on the interpreter, all off one image. The
// compiled backend adds two shared read-mostly structures on top of the
// Image — the once-built static program (Image.prog) and the per-image
// cfunc bodies every compiled machine executes — plus per-machine state
// (dispatch caches, dynamic compilations) that must never bleed across
// siblings. Run with -race: the first few machines race to trigger the
// lazy image compilation while others are already executing it.
func TestSharedImageConcurrentCompiledMachines(t *testing.T) {
	f := fileWith(
		buildFunc("bump", 0, 3, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "counter", A: obj.NoReg},
			{Op: obj.OpLoad, Dst: 2, A: 1},
			{Op: obj.OpConst, Dst: 0, Imm: 1},
			{Op: obj.OpBin, Dst: 2, A: 2, B: 0, Tok: int(cmini.PLUS)},
			{Op: obj.OpStore, A: 1, B: 2},
			{Op: obj.OpRet, A: 2, HasVal: true},
		}),
		buildFunc("orig", 0, 1, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 0, Imm: 1},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}),
		buildFunc("caller", 0, 1, 0, []obj.Instr{
			{Op: obj.OpCall, Dst: 0, Sym: "orig", A: obj.NoReg},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}),
	)
	f.Datas["counter"] = &obj.Data{Name: "counter", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: 0}}}
	f.AddSym(&obj.Symbol{Name: "counter", Kind: obj.SymData, Defined: true})

	img, err := Load(f, DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	const machines, rounds = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < machines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := New(img)
			compiled := id%2 == 0
			if compiled {
				m.SetBackend(BackendCompiled)
			}
			// Per-machine interposition through a per-machine dynamic
			// module: each compiled machine builds its own dynamic cfunc
			// and dispatch cache; none of that may cross machines.
			mod := obj.NewFile("mod")
			mod.Funcs["repl"] = &obj.Func{Name: "repl", NArgs: 0, NRegs: 1, Code: []obj.Instr{
				{Op: obj.OpConst, Dst: 0, Imm: int64(100 + id)},
				{Op: obj.OpRet, A: 0, HasVal: true},
			}}
			mod.AddSym(&obj.Symbol{Name: "repl", Kind: obj.SymFunc, Defined: true})
			if err := m.LoadDynamic(mod); err != nil {
				t.Errorf("machine %d: LoadDynamic: %v", id, err)
				return
			}
			// Warm the direct-call dispatch slot on the original target,
			// then interpose: the slot must re-resolve, concurrently with
			// siblings doing the same against the shared cfunc bodies.
			if v, err := m.Run("caller"); err != nil || v != 1 {
				t.Errorf("machine %d: pre-interpose caller = %d, %v; want 1", id, v, err)
				return
			}
			if err := m.Interpose("orig", "repl"); err != nil {
				t.Errorf("machine %d: Interpose: %v", id, err)
				return
			}
			for r := 0; r < rounds; r++ {
				if _, err := m.Run("bump"); err != nil {
					t.Errorf("machine %d: bump: %v", id, err)
					return
				}
			}
			v, err := m.Run("bump")
			if err != nil {
				t.Errorf("machine %d: bump: %v", id, err)
				return
			}
			if v != rounds+1 {
				t.Errorf("machine %d: counter = %d, want %d (data bled across machines?)", id, v, rounds+1)
			}
			if v, err := m.Run("caller"); err != nil || v != int64(100+id) {
				t.Errorf("machine %d: interposed caller = %d, %v; want %d", id, v, err, 100+id)
			}
			if compiled && m.Stalls != 0 {
				t.Errorf("machine %d: compiled backend reported %d stalls; fetch model must stay off", id, m.Stalls)
			}
		}(i)
	}
	wg.Wait()
}

// TestSharedImageInterposeUnderLoad is the live-reconfiguration
// regression net: one canary machine churns the full upgrade cycle —
// dynamic load, interpose, re-interpose, unpose, unload, snapshot
// restore, with the rewire hook armed — while sibling machines on both
// backends serve calls off the same image. Run with -race. The
// siblings' counters and dispatch results must never see the canary's
// churn, and the canary must end every cycle clean.
func TestSharedImageInterposeUnderLoad(t *testing.T) {
	f := fileWith(
		buildFunc("bump", 0, 3, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "counter", A: obj.NoReg},
			{Op: obj.OpLoad, Dst: 2, A: 1},
			{Op: obj.OpConst, Dst: 0, Imm: 1},
			{Op: obj.OpBin, Dst: 2, A: 2, B: 0, Tok: int(cmini.PLUS)},
			{Op: obj.OpStore, A: 1, B: 2},
			{Op: obj.OpRet, A: 2, HasVal: true},
		}),
		buildFunc("orig", 0, 1, 0, []obj.Instr{
			{Op: obj.OpConst, Dst: 0, Imm: 1},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}),
		buildFunc("caller", 0, 1, 0, []obj.Instr{
			{Op: obj.OpCall, Dst: 0, Sym: "orig", A: obj.NoReg},
			{Op: obj.OpRet, A: 0, HasVal: true},
		}),
	)
	f.Datas["counter"] = &obj.Data{Name: "counter", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: 0}}}
	f.AddSym(&obj.Symbol{Name: "counter", Kind: obj.SymData, Defined: true})

	img, err := Load(f, DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	const siblings, rounds, churns = 6, 300, 120
	var wg sync.WaitGroup

	// The canary: churn upgrade cycles as the reconfigure layer would —
	// each cycle loads a fresh module, anchors a redirect on the shared
	// symbol, overrides it with a second module (exercising redirect
	// path compression), then rolls the whole cycle back via Restore and
	// verifies zero residue against the pre-cycle snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		m := New(img)
		m.SetBackend(BackendCompiled)
		snap := m.Snapshot()
		for c := 0; c < churns; c++ {
			modFor := func(name string, val int64) *obj.File {
				mod := obj.NewFile(name)
				mod.Funcs[name] = &obj.Func{Name: name, NArgs: 0, NRegs: 1, Code: []obj.Instr{
					{Op: obj.OpConst, Dst: 0, Imm: val},
					{Op: obj.OpRet, A: 0, HasVal: true},
				}}
				mod.AddSym(&obj.Symbol{Name: name, Kind: obj.SymFunc, Defined: true})
				return mod
			}
			if err := m.LoadDynamicAs("v1", "v1", modFor("repl1", int64(1000+c))); err != nil {
				t.Errorf("churn %d: load v1: %v", c, err)
				return
			}
			if err := m.Interpose("orig", "repl1"); err != nil {
				t.Errorf("churn %d: interpose v1: %v", c, err)
				return
			}
			if v, err := m.Run("caller"); err != nil || v != int64(1000+c) {
				t.Errorf("churn %d: caller via v1 = %d, %v; want %d", c, v, err, 1000+c)
				return
			}
			// Second upgrade overrides the first; path compression must
			// re-point the redirect so v1 unloads cleanly.
			if err := m.LoadDynamicAs("v2", "v2", modFor("repl2", int64(2000+c))); err != nil {
				t.Errorf("churn %d: load v2: %v", c, err)
				return
			}
			if err := m.Interpose("repl1", "repl2"); err != nil {
				t.Errorf("churn %d: interpose v2: %v", c, err)
				return
			}
			if err := m.UnloadDynamic("v1"); err != nil {
				t.Errorf("churn %d: unload v1: %v", c, err)
				return
			}
			if v, err := m.Run("caller"); err != nil || v != int64(2000+c) {
				t.Errorf("churn %d: caller via v2 = %d, %v; want %d", c, v, err, 2000+c)
				return
			}
			m.Restore(snap)
			if err := m.StateEqual(snap); err != nil {
				t.Errorf("churn %d: residue after rollback: %v", c, err)
				return
			}
			if v, err := m.Run("caller"); err != nil || v != 1 {
				t.Errorf("churn %d: post-rollback caller = %d, %v; want 1", c, v, err)
				return
			}
			// Running caller dirties the stack tracking; re-snapshot so the
			// next cycle's residue check compares like with like.
			snap = m.Snapshot()
		}
	}()

	// The siblings: serve steadily off the same image, no interposition.
	// Their counters count only their own calls and their dispatch of
	// "orig" never changes.
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := New(img)
			if id%2 == 0 {
				m.SetBackend(BackendCompiled)
			}
			for r := 0; r < rounds; r++ {
				if v, err := m.Run("caller"); err != nil || v != 1 {
					t.Errorf("sibling %d round %d: caller = %d, %v; want 1", id, r, v, err)
					return
				}
				if _, err := m.Run("bump"); err != nil {
					t.Errorf("sibling %d round %d: bump: %v", id, r, err)
					return
				}
			}
			if v, err := m.Run("bump"); err != nil || v != rounds+1 {
				t.Errorf("sibling %d: counter = %d, %v; want %d (canary churn bled across machines?)",
					id, v, err, rounds+1)
			}
		}(i)
	}
	wg.Wait()
}

// TestSharedImageConcurrentForeignRestore restores one snapshot holding
// a dynamic module onto 8 machines off one image at once, as every fleet
// shard does with the fleet's post-init snapshot at boot and respawn.
// Each machine then calls, unloads and reloads the module. The restore
// renumbers each machine's own copy of the module's records, so no
// machine ever sees an index it drew before. Machine id draws id indices
// of its own before the restore, and all restores finish before the
// first call, so a record two machines shared would carry one of their
// numbers on the other. Run with -race.
func TestSharedImageConcurrentForeignRestore(t *testing.T) {
	img, err := Load(fileWith(buildFunc("base_id", 1, 1, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	})), DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	proto := New(img)
	if err := proto.LoadDynamicAs("mod", "Top/Mod#1", identityModule("dyn_fn")); err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()

	const machines, reloads = 8, 3
	var wg, restored sync.WaitGroup
	restored.Add(machines)
	for i := 0; i < machines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := New(img)
			if id%2 == 0 {
				m.SetBackend(BackendCompiled)
			}
			// draw runs fn and checks that the index it reports is new to
			// this machine.
			drawn := map[int]string{0: "base_id"}
			draw := func(fn string) bool {
				index := -1
				m.PostCall = func(ci CallInfo) { index = ci.Index }
				_, err := m.Run(fn, 1)
				m.PostCall = nil
				if err != nil {
					t.Errorf("machine %d: %s: %v", id, fn, err)
					return false
				}
				if prev, ok := drawn[index]; ok {
					t.Errorf("machine %d: %s reports index %d, drawn before by %s", id, fn, index, prev)
					return false
				}
				drawn[index] = fn
				return true
			}
			must := func(what string, err error) bool {
				if err != nil {
					t.Errorf("machine %d: %s: %v", id, what, err)
				}
				return err == nil
			}
			ok := true
			for k := 0; ok && k < id; k++ {
				own := fmt.Sprintf("own_%d", k)
				ok = must("load", m.LoadDynamicAs("own", "", identityModule(own))) && draw(own) &&
					must("unload", m.UnloadDynamic("own"))
			}
			m.Restore(snap)
			restored.Done()
			restored.Wait()
			ok = ok && draw("dyn_fn")
			for r := 0; ok && r < reloads; r++ {
				ok = must("unload", m.UnloadDynamic("mod")) &&
					must("reload", m.LoadDynamicAs("mod", "Top/Mod#1", identityModule("dyn_fn"))) &&
					draw("dyn_fn")
			}
			if !ok {
				return
			}
			if owner := m.OwnerOf("dyn_fn"); owner != "Top/Mod#1" {
				t.Errorf("machine %d: OwnerOf(dyn_fn) = %q", id, owner)
			}
			if err := m.CheckDynInvariants(); err != nil {
				t.Errorf("machine %d: %v", id, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestSharedImageFreshMachineSeesInitData pins the other half of the
// contract: New writes the image's initial data into the machine's own
// memory, so a machine that scribbled on its globals never leaks into a
// sibling created later from the same image.
func TestSharedImageFreshMachineSeesInitData(t *testing.T) {
	f := fileWith(buildFunc("bump", 0, 3, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: "counter", A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 2, A: 1},
		{Op: obj.OpConst, Dst: 0, Imm: 1},
		{Op: obj.OpBin, Dst: 2, A: 2, B: 0, Tok: int(cmini.PLUS)},
		{Op: obj.OpStore, A: 1, B: 2},
		{Op: obj.OpRet, A: 2, HasVal: true},
	}))
	f.Datas["counter"] = &obj.Data{Name: "counter", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: 41}}}
	f.AddSym(&obj.Symbol{Name: "counter", Kind: obj.SymData, Defined: true})
	img, err := Load(f, DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	a := New(img)
	if v, err := a.Run("bump"); err != nil || v != 42 {
		t.Fatalf("first machine bump = %d, %v; want 42", v, err)
	}
	b := New(img)
	if v, err := b.Run("bump"); err != nil || v != 42 {
		t.Fatalf("fresh machine bump = %d, %v; want 42 (saw sibling's writes)", v, err)
	}
}
