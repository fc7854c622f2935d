package machine

import (
	"errors"
	"testing"

	"knit/internal/asm"
	"knit/internal/obj"
)

func TestConsoleAndSerialSeparateSinks(t *testing.T) {
	emit := buildFunc("emit", 0, 1, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 0, Imm: 'c'},
		{Op: obj.OpCall, Dst: 0, Sym: "__console_out", Args: []obj.Reg{0}},
		{Op: obj.OpConst, Dst: 0, Imm: 's'},
		{Op: obj.OpCall, Dst: 0, Sym: "__serial_out", Args: []obj.Reg{0}},
		{Op: obj.OpRet, A: obj.NoReg},
	})
	m := loadFile(t, fileWith(emit))
	con := InstallConsole(m)
	ser := InstallSerial(m)
	if _, err := m.Run("emit"); err != nil {
		t.Fatal(err)
	}
	if con.String() != "c" || ser.String() != "s" {
		t.Errorf("console %q serial %q", con.String(), ser.String())
	}
	con.Reset()
	if con.String() != "" {
		t.Error("console Reset did not clear")
	}
}

// TestBuiltinArgCountTrap: a device builtin called with the wrong
// number of arguments refuses with a *Trap, not a host panic, and the
// trap carries the calling function, its pc and its unit, the same on
// both engines.
func TestBuiltinArgCountTrap(t *testing.T) {
	f, err := asm.Parse("probe.s", `
extern __console_out
extern __serial_out
func probe nargs=0 nregs=2
  const r1, 7
  call  r0, __console_out
  ret   r0
func probe2 nargs=0 nregs=2
  const r1, 7
  call  r0, __serial_out, r1, r1
  ret   r0
`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Load(f, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	img.SymbolOwner = map[string]string{"probe": "Probe/P#0", "probe2": "Probe/P#0"}
	for _, tc := range []struct{ entry, msg string }{
		{"probe", "__console_out called with 0 args, want 1"},
		{"probe2", "__serial_out called with 2 args, want 1"},
	} {
		var traps [2]*Trap
		for i, b := range []Backend{BackendInterp, BackendCompiled} {
			m := New(img)
			m.SetBackend(b)
			InstallConsole(m)
			InstallSerial(m)
			_, err := m.Run(tc.entry)
			if !errors.As(err, &traps[i]) {
				t.Fatalf("%s on %v: err = %v, want a *Trap", tc.entry, b, err)
			}
		}
		want := Trap{Kind: TrapGeneric, Msg: tc.msg, Func: tc.entry, Unit: "Probe/P#0", PC: 1}
		for i, tr := range traps {
			if *tr != want {
				t.Errorf("%s on engine %d: trap %+v, want %+v", tc.entry, i, *tr, want)
			}
		}
	}
}

func TestWriteWordsAndBounds(t *testing.T) {
	f := fileWith(buildFunc("id", 1, 1, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	m := loadFile(t, f)
	addr := int64(len(m.Mem)) - 4
	if err := m.WriteWords(addr, []int64{1, 2, 3, 4}); err != nil {
		t.Fatalf("in-bounds write: %v", err)
	}
	if m.Mem[addr+3] != 4 {
		t.Error("write did not land")
	}
	if err := m.WriteWords(addr, []int64{1, 2, 3, 4, 5}); err == nil {
		t.Error("overflowing write should fail")
	}
	if err := m.WriteWords(2, []int64{1}); err == nil {
		t.Error("write into the null guard should fail")
	}
}

func TestReadCStringBounds(t *testing.T) {
	f := fileWith()
	f.Strings = []string{"knit"}
	f.Datas["keep"] = &obj.Data{Name: "keep", Size: 1}
	m := loadFile(t, f)
	// Locate the interned string through the image and read it back.
	s, err := m.ReadCString(m.Img.GlobalAddr["keep"] + 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != "knit" {
		t.Errorf("ReadCString = %q", s)
	}
	if _, err := m.ReadCString(1); err == nil {
		t.Error("reading the null guard should fail")
	}
	if _, err := m.ReadCString(int64(len(m.Mem)) + 5); err == nil {
		t.Error("reading past memory should fail")
	}
}

func TestStopWatchUnbalancedExitIgnored(t *testing.T) {
	f := fileWith(buildFunc("f", 0, 1, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 0, Sym: "__tick_exit"}, // exit without enter
		{Op: obj.OpCall, Dst: 0, Sym: "__tick_enter"},
		{Op: obj.OpCall, Dst: 0, Sym: "__tick_exit"},
		{Op: obj.OpRet, A: obj.NoReg},
	}))
	m := loadFile(t, f)
	w := InstallStopWatch(m)
	if _, err := m.Run("f"); err != nil {
		t.Fatal(err)
	}
	if w.Windows != 1 {
		t.Errorf("windows = %d, want 1 (unbalanced exit ignored)", w.Windows)
	}
	if w.StallsPerWindow() < 0 {
		t.Error("negative stall accounting")
	}
}

func TestRunMissingArgsTrap(t *testing.T) {
	f := fileWith(buildFunc("two", 2, 2, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	m := loadFile(t, f)
	if _, err := m.Run("two", 1); err == nil {
		t.Error("wrong arity should trap")
	}
}
