package lang

import (
	"reflect"
	"strings"
	"testing"

	"knit/internal/diag"
)

// stripPos removes positions so parsed files can be compared
// structurally.
func stripPos(f *File) {
	zero := diag.Pos{}
	for _, bt := range f.BundleTypes {
		bt.Pos = zero
	}
	for _, fs := range f.FlagSets {
		fs.Pos = zero
	}
	for _, p := range f.Properties {
		p.Pos = zero
		for i := range p.Values {
			p.Values[i].Pos = zero
		}
	}
	for _, u := range f.Units {
		u.Pos = zero
		for i := range u.Imports {
			u.Imports[i].Pos = zero
		}
		for i := range u.Exports {
			u.Exports[i].Pos = zero
		}
		for i := range u.Depends {
			u.Depends[i].Pos = zero
		}
		for i := range u.Renames {
			u.Renames[i].Pos = zero
		}
		for i := range u.Inits {
			u.Inits[i].Pos = zero
		}
		for i := range u.Constraints {
			u.Constraints[i].Pos = zero
			u.Constraints[i].LHS.Pos = zero
			u.Constraints[i].RHS.Pos = zero
		}
		for i := range u.Links {
			u.Links[i].Pos = zero
		}
	}
	f.Name = ""
}

func roundTrip(t *testing.T, src string) {
	t.Helper()
	f1, err := Parse("a.unit", src)
	if err != nil {
		t.Fatalf("parse original: %v", err)
	}
	printed := Print(f1)
	f2, err := Parse("b.unit", printed)
	if err != nil {
		t.Fatalf("reparse printed: %v\n%s", err, printed)
	}
	stripPos(f1)
	stripPos(f2)
	if !reflect.DeepEqual(f1, f2) {
		t.Errorf("round trip changed the file.\nprinted:\n%s\nwant: %#v\ngot:  %#v",
			printed, f1, f2)
	}
}

func TestPrintRoundTripPaperExample(t *testing.T) {
	roundTrip(t, paperExample)
}

func TestPrintRoundTripProperties(t *testing.T) {
	roundTrip(t, `
property context
type NoContext
type ProcessContext < NoContext
unit Locks = {
  imports [ sched : Sched ];
  exports [ lock : Lock ];
  initializer lk_init for lock;
  finalizer lk_fini for lock;
  depends {
    exports needs imports;
    lk_init needs sched;
  };
  constraints {
    context(lock) = NoContext;
    context(exports) <= context(imports);
    ProcessContext <= context(sched);
  };
  files { "lock.c", "lock2.c" } with flags CF;
}
flags CF = { "-O", "-Ithere" }
`)
}

func TestPrintRoundTripGeneratedRouter(t *testing.T) {
	// The Clack config compiler emits unit text; make sure printing any
	// parse of such text is stable too (wildcards, multi-out links).
	roundTrip(t, `
bundletype Push = { push }
bundletype Stat = { counter_read }
unit Counter = {
  imports [ out : Push ];
  exports [ in : Push, stat : Stat ];
  depends { (in + stat) needs out; };
  files { "counter.c" };
  rename { out.push to push_out; };
}
unit Top = {
  exports [ in : Push ];
  link {
    [sink] <- Counter <- [sink];
  };
}
`)
}

// TestPrintRoundTripEdgeCases: a flags reference on an empty files
// list, and a string holding every escape the lexer reads plus a raw
// control byte, survive print → parse.
func TestPrintRoundTripEdgeCases(t *testing.T) {
	roundTrip(t, `unit U = { files { } with flags F; }`)
	roundTrip(t, "flags F = { \"a\\tb\\0c\\\"d\\\\e\x01\" }")
}

func TestPrintIsParseable(t *testing.T) {
	f, err := Parse("p.unit", paperExample)
	if err != nil {
		t.Fatal(err)
	}
	out := Print(f)
	for _, want := range []string{"bundletype Serve", "unit LogServe",
		"[serveWeb] <- Web <- [serveFile, serveCGI];",
		"rename {", "serveWeb.serve_web to serve_unlogged;"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
}
