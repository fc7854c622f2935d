package assemble_test

import (
	"errors"
	"strings"
	"testing"

	"knit/internal/diag/diagtest"
	"knit/internal/knit/assemble"
	"knit/internal/knit/build"
	"knit/internal/machine"
	"knit/internal/oskit"
)

func installDevices(m *machine.M) {
	machine.InstallConsole(m)
	machine.InstallSerial(m)
	machine.InstallStopWatch(m)
}

// FuzzAssemble is the assembler's end-to-end oracle: a goal that does
// not parse must be refused with an error positioned inside it; for any
// parseable goal over the oskit repository, four verify workers must
// return exactly what one does, every emitted assembly must pass the
// constraint checker, build cold from its printed source alone, and run
// its init schedule transactionally — and an unsatisfiable goal must
// yield an explanation, never a wiring.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		`goal Console; export out : PutChar;`,
		`goal Console; export out : PutChar; bound context(out) <= NoContext;`,
		`goal Pf; export pf : Printf; avoid ConsoleDev;`,
		`goal Hello; export main : Main; top HelloMain; use SerialDev;`,
		`goal Q; export enq : WorkQ; bound context(enq) <= NoContext;`,
		`goal I; export irq : Irq; use BlockingLock; avoid SpinLock, IrqDefer;`,
		`goal G; export out : PutChar; avoid ConsoleDev, SerialDev, VgaConsole;`,
		`goal Two; export out : PutChar; export lock : Lock; limit 6;`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	repo := oskit.Repository()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			return
		}
		goal, err := assemble.ParseGoal("fuzz.goal", src)
		if err != nil {
			diagtest.At(t, err, src)
			return
		}
		if len(goal.Exports) > 4 {
			return // keep the search bounded under fuzzing
		}
		opts := assemble.Options{MaxInstances: 8, RawBudget: 24, RankPool: 2}
		asms, err := assemble.EnumerateWorkers(repo, goal, 2, opts, 1)
		if four, one := enumeration(assemble.EnumerateWorkers(repo, goal, 2, opts, 4)), enumeration(asms, err); four != one {
			t.Fatalf("four workers returned\n%s\none worker returned\n%s", four, one)
		}
		if err != nil {
			var unsat *assemble.UnsatError
			if errors.As(err, &unsat) && unsat.Reason == "" {
				t.Fatalf("UnsatError without an explanation: %#v", unsat)
			}
			return
		}
		if len(asms) == 0 {
			t.Fatal("Enumerate returned success with zero assemblies")
		}
		for _, a := range asms {
			if a.Result.ConstraintReport == nil {
				t.Fatalf("%s: assembly skipped the constraint checker", a.Name)
			}
			for _, u := range a.Units {
				for _, av := range goal.Avoid {
					if u == av {
						t.Fatalf("%s instantiates forbidden unit %s", a.Name, av)
					}
				}
			}
			// Cold round trip: printed source + repository only.
			files := map[string]string{"__assembly.unit": a.Text}
			for k, v := range repo.UnitFiles {
				files[k] = v
			}
			res, err := build.Build(build.Options{
				Top: a.Name, UnitFiles: files, Sources: repo.Sources, Check: true,
			})
			if err != nil {
				t.Fatalf("%s: cold rebuild of emitted source failed: %v\n%s", a.Name, err, a.Text)
			}
			m := res.NewMachine()
			installDevices(m)
			if err := res.RunInit(m); err != nil {
				t.Fatalf("%s: init schedule failed on cold rebuild: %v", a.Name, err)
			}
			if !strings.Contains(a.Text, "unit "+a.Name) {
				t.Fatalf("%s: emitted text does not define the assembly", a.Name)
			}
		}
	})
}
