package machine_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/machine"
	"knit/internal/obj"
	"knit/internal/oskit"
)

// TestMemoryMatchesDenseReference holds the machine's memory to
// machine.DenseInit, the dense initial data segment Load built before
// images kept only their runs of nonzero words, on every image the
// repository builds: the oskit kernels, the census kernel, clack's four
// routers and upgrade targets, and every buildable unit of the examples
// and CLI test data. On each it checks a new machine on a released,
// scribbled buffer; ResetData of every data symbol, half at a time, on
// a scribbled machine; and Snapshot, Restore and StateEqual on an
// untouched machine and on one that ran its init schedule. It then
// loads the image's linked object as a dynamic module and holds the
// module's memory, and ResetData of its data symbols, to the same
// reference at the module's addresses.
func TestMemoryMatchesDenseReference(t *testing.T) {
	n := 0
	forEachRepositoryImage(t, func(label string, res *build.Result) {
		checkImageMemory(t, label, res)
		checkModuleMemory(t, label, res)
		n++
	})
	t.Logf("%d images", n)
	if n < 25 {
		t.Errorf("only %d images checked", n)
	}
}

// forEachRepositoryImage builds every program the repository builds, as
// the compiler's repository oracle elaborates them, and calls f on each
// build.
func forEachRepositoryImage(t *testing.T, f func(label string, res *build.Result)) {
	t.Helper()
	each := func(label string, units map[string]string, sources link.Sources, tops ...string) {
		if tops == nil {
			for name, text := range units {
				file, err := lang.Parse(name, text)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				tops = roots(file)
			}
		}
		for _, top := range tops {
			res, err := build.Build(build.Options{Top: top, UnitFiles: units, Sources: sources})
			if err != nil {
				continue // a program the repository builds only to refuse
			}
			f(label+" "+top, res)
		}
	}
	each("oskit", map[string]string{"oskit.unit": oskit.Units()}, oskit.KernelSources())
	census, censusSrc, censusTop := oskit.CensusKernel(100, 35)
	each("census", map[string]string{"census.unit": census}, censusSrc, censusTop)
	for _, v := range []clack.Variant{{}, {Flattened: true}, {HandOptimized: true}, {HandOptimized: true, Flattened: true}} {
		res, err := clack.BuildRouterTuned(v, nil)
		if err != nil {
			t.Fatalf("router %v: %v", v, err)
		}
		f("router "+v.String(), res)
	}
	for _, unit := range []string{"ClassifierV2", "ClassifierBad"} {
		tgt, err := clack.UpgradeTarget(unit)
		if err != nil {
			t.Fatal(err)
		}
		each("upgrade "+unit, tgt.UnitFiles, tgt.Sources, tgt.Top)
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
			each(path, map[string]string{filepath.Base(path): string(text)}, sources)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// roots returns a unit file's buildable tops: units with no imports
// that no other unit in the file links. It is the compiler oracle's
// rule (internal/compile/vnoracle_test.go), which a test package cannot
// import.
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

// scribble fills mem with nonzero words that differ from address to
// address.
func scribble(mem []int64) {
	for i := range mem {
		mem[i] = int64(i)*7919 + 1
	}
}

// firstDiff returns the first address at which mem differs from want
// followed by zeros, or -1; a length mismatch differs at the shorter
// end.
func firstDiff(mem, want []int64) int {
	for i, v := range mem {
		w := int64(0)
		if i < len(want) {
			w = want[i]
		}
		if v != w {
			return i
		}
	}
	if len(mem) < len(want) {
		return len(mem)
	}
	return -1
}

// probes are the addresses StateEqual is checked to notice a change at:
// the first and last nonzero words of want, a zero word between
// them, and the last word of memory.
func probes(want []int64, memLen int) []int {
	var out []int
	first := slices.IndexFunc(want, func(v int64) bool { return v != 0 })
	if first >= 0 {
		last := len(want) - 1
		for want[last] == 0 {
			last--
		}
		out = append(out, first, last)
		if gap := slices.Index(want[first:last], 0); gap >= 0 {
			out = append(out, first+gap)
		}
	}
	return append(out, memLen-1)
}

// checkStateEqual checks that StateEqual accepts m against s, and that
// it names each probed word, with the value s has there, once m's word
// changes.
func checkStateEqual(t *testing.T, label string, m *machine.M, s *machine.Snapshot, want []int64) {
	t.Helper()
	if err := m.StateEqual(s); err != nil {
		t.Errorf("%s: StateEqual: %v", label, err)
		return
	}
	for _, a := range probes(want, len(m.Mem)) {
		w := int64(0)
		if a < len(want) {
			w = want[a]
		}
		m.Mem[a] = w ^ 0x5a5a
		msg := fmt.Sprintf("memory word %d is %d, snapshot has %d", a, w^0x5a5a, w)
		if err := m.StateEqual(s); err == nil || err.Error() != msg {
			t.Errorf("%s: StateEqual after word %d changed: %v, want %q", label, a, err, msg)
		}
		m.Mem[a] = w
	}
}

func checkImageMemory(t *testing.T, label string, res *build.Result) {
	img := res.Image
	dense := machine.DenseInit(img)

	// A new machine, on the buffer of a released machine that wrote all
	// of its memory.
	old := machine.New(img)
	scribble(old.Mem)
	old.Release()
	m := machine.New(img)
	if a := firstDiff(m.Mem, dense); a >= 0 {
		t.Errorf("%s: new machine's word %d is %d, reference has %d", label, a, m.Mem[a], dense[min(a, len(dense)-1)])
	}

	// ResetData of every data symbol, half of them at a time, in address
	// order, leaves every other word alone.
	names := make([]string, 0, len(img.GlobalAddr))
	for name := range img.GlobalAddr {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return img.GlobalAddr[names[i]] < img.GlobalAddr[names[j]] })
	scribble(m.Mem)
	want := slices.Clone(m.Mem)
	for parity := 0; parity < 2; parity++ {
		var syms []string
		for i, name := range names {
			if i%2 == parity {
				syms = append(syms, name)
				lo := img.GlobalAddr[name]
				hi := lo + int64(img.File.Datas[name].Size)
				copy(want[lo:hi], dense[lo:hi])
			}
		}
		if got := m.ResetData(syms); got != len(syms) {
			t.Errorf("%s: ResetData reset %d of %d symbols", label, got, len(syms))
		}
		if a := firstDiff(m.Mem, want); a >= 0 {
			t.Errorf("%s: after ResetData of half %d, word %d is %d, want %d", label, parity, a, m.Mem[a], want[a])
		}
	}

	// An untouched machine's snapshot refers to the image and restores
	// it onto a scribbled machine.
	u := res.NewMachine()
	s := u.Snapshot()
	if !s.RefersToImage() {
		t.Errorf("%s: snapshot of an untouched machine copies its memory", label)
	}
	checkStateEqual(t, label+" (untouched)", u, s, dense)
	m.Restore(s)
	if a := firstDiff(m.Mem, dense); a >= 0 || len(m.Mem) != len(u.Mem) {
		t.Errorf("%s: restored untouched snapshot: word %d differs, length %d, want %d", label, a, len(m.Mem), len(u.Mem))
	}

	// A machine that ran its init schedule: its snapshot refers to the
	// image only when memory is still the image, restores its memory
	// exactly onto a scribbled machine, and is left by a restore of the
	// untouched snapshot as a new machine.
	r := res.NewMachine()
	machine.InstallConsole(r)
	machine.InstallSerial(r)
	machine.InstallStopWatch(r)
	clack.InstallDevices(r, [2][]clack.Packet{})
	res.RunInit(r) // a failed init rolls back, and its memory is checked all the same
	ran := slices.Clone(r.Mem)
	rs := r.Snapshot()
	if still := firstDiff(ran, dense) < 0; rs.RefersToImage() != still {
		t.Errorf("%s: run machine's snapshot refers to the image = %v, memory is the image's = %v", label, rs.RefersToImage(), still)
	}
	checkStateEqual(t, label+" (run)", r, rs, ran)
	scribble(m.Mem)
	m.Restore(rs)
	if a := firstDiff(m.Mem, ran); a >= 0 || len(m.Mem) != len(ran) {
		t.Errorf("%s: restored run snapshot: word %d differs, length %d, want %d", label, a, len(m.Mem), len(ran))
	}
	r.Restore(s)
	if a := firstDiff(r.Mem, dense); a >= 0 {
		t.Errorf("%s: run machine restored to the untouched snapshot: word %d is %d", label, a, r.Mem[a])
	}
	m.Release()
	res.Forget(u)
	res.Forget(r)
}

// checkModuleMemory loads res's linked object as a dynamic module on a
// machine of an empty image, and checks the module's memory against
// machine.DenseModuleInit, then ResetData of every module data symbol,
// half at a time, on scribbled module memory: each resets to exactly
// the words the load wrote, and every other word is left alone.
func checkModuleMemory(t *testing.T, label string, res *build.Result) {
	bare, err := machine.Load(obj.NewFile("bare"), machine.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(bare)
	defer m.Release()
	o := res.Object
	if err := m.LoadDynamicAs("mod", "", o); err != nil {
		t.Errorf("%s: load as a module: %v", label, err)
		return
	}
	base, dense := machine.DenseModuleInit(m, "mod", o)
	if a := firstDiff(m.Mem[base:], dense); a >= 0 {
		t.Errorf("%s: module word %d is %d, reference has %d", label, base+int64(a), m.Mem[base+int64(a)], dense[min(a, len(dense)-1)])
	}
	names := make([]string, 0, len(o.Datas))
	for name := range o.Datas {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return machine.Addr(m, names[i]) < machine.Addr(m, names[j]) })
	scribble(m.Mem[base:])
	want := slices.Clone(m.Mem)
	for parity := 0; parity < 2; parity++ {
		var syms []string
		for i, name := range names {
			if i%2 == parity {
				syms = append(syms, name)
				lo := machine.Addr(m, name)
				hi := lo + int64(o.Datas[name].Size)
				copy(want[lo:hi], dense[lo-base:hi-base])
			}
		}
		if got := m.ResetData(syms); got != len(syms) {
			t.Errorf("%s: ResetData reset %d of %d module symbols", label, got, len(syms))
		}
		if a := firstDiff(m.Mem, want); a >= 0 {
			t.Errorf("%s: after module ResetData of half %d, word %d is %d, want %d", label, parity, a, m.Mem[a], want[a])
		}
	}
}
