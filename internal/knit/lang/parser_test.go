package lang

import (
	"strings"
	"testing"

	"knit/internal/diag/diagtest"
)

// paperExample is (nearly verbatim) the code from the paper's Figure 5.
const paperExample = `
bundletype Serve = { serve_web }
bundletype Stdio = { fopen, fprintf }
flags CFlags = { "-Ioskit/include" }

unit Web = {
  imports [ serveFile : Serve,
             serveCGI : Serve ];
  exports [ serveWeb : Serve ];
  depends {
     serveWeb needs (serveFile + serveCGI);
  };
  files { "web.c" } with flags CFlags;
  rename {
     serveFile.serve_web to serve_file;
     serveCGI.serve_web to serve_cgi;
  };
}

unit Log = {
  imports [ serveWeb : Serve,
               stdio : Stdio ];
  exports [ serveLog : Serve ];
  initializer open_log for serveLog;
  finalizer close_log for serveLog;
  depends {
     (open_log + close_log) needs stdio;
     serveLog needs (serveWeb + stdio);
  };
  files { "log.c" } with flags CFlags;
  rename {
     serveWeb.serve_web to serve_unlogged;
     serveLog.serve_web to serve_logged;
  };
}

unit LogServe = {
  imports [ serveFile : Serve,
            serveCGI : Serve,
            stdio : Stdio ];
  exports [ serveLog : Serve ];
  link {
    [serveWeb] <- Web <- [serveFile, serveCGI];
    [serveLog] <- Log <- [serveWeb, stdio];
  };
}
`

func TestParsePaperExample(t *testing.T) {
	f, err := Parse("web.unit", paperExample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.BundleTypes) != 2 {
		t.Fatalf("bundletypes = %d, want 2", len(f.BundleTypes))
	}
	if f.BundleTypes[1].Name != "Stdio" || len(f.BundleTypes[1].Syms) != 2 {
		t.Errorf("Stdio = %+v", f.BundleTypes[1])
	}
	if len(f.FlagSets) != 1 || f.FlagSets[0].Values[0] != "-Ioskit/include" {
		t.Errorf("flags = %+v", f.FlagSets)
	}
	if len(f.Units) != 3 {
		t.Fatalf("units = %d, want 3", len(f.Units))
	}

	web := f.Units[0]
	if web.Name != "Web" || web.IsCompound() {
		t.Errorf("Web: %+v", web)
	}
	if len(web.Imports) != 2 || web.Imports[0].Local != "serveFile" || web.Imports[0].Type != "Serve" {
		t.Errorf("Web imports: %+v", web.Imports)
	}
	if len(web.Depends) != 1 {
		t.Fatalf("Web depends: %+v", web.Depends)
	}
	d := web.Depends[0]
	if d.LHS[0] != "serveWeb" || len(d.RHS) != 2 {
		t.Errorf("Web dep: %+v", d)
	}
	if web.FlagsRef != "CFlags" || web.Files[0] != "web.c" {
		t.Errorf("Web files: %v with %q", web.Files, web.FlagsRef)
	}
	if len(web.Renames) != 2 || web.Renames[0].Bundle != "serveFile" ||
		web.Renames[0].Sym != "serve_web" || web.Renames[0].To != "serve_file" {
		t.Errorf("Web renames: %+v", web.Renames)
	}

	log := f.Units[1]
	if len(log.Inits) != 2 {
		t.Fatalf("Log inits: %+v", log.Inits)
	}
	if log.Inits[0].Func != "open_log" || log.Inits[0].Bundle != "serveLog" || log.Inits[0].Finalizer {
		t.Errorf("initializer: %+v", log.Inits[0])
	}
	if log.Inits[1].Func != "close_log" || !log.Inits[1].Finalizer {
		t.Errorf("finalizer: %+v", log.Inits[1])
	}
	if len(log.Depends) != 2 || len(log.Depends[0].LHS) != 2 {
		t.Errorf("Log depends: %+v", log.Depends)
	}

	ls := f.Units[2]
	if !ls.IsCompound() || len(ls.Links) != 2 {
		t.Fatalf("LogServe: %+v", ls)
	}
	l0 := ls.Links[0]
	if l0.Unit != "Web" || l0.Outs[0] != "serveWeb" || len(l0.Ins) != 2 {
		t.Errorf("link 0: %+v", l0)
	}
	l1 := ls.Links[1]
	if l1.Unit != "Log" || l1.Ins[0] != "serveWeb" || l1.Ins[1] != "stdio" {
		t.Errorf("link 1: %+v", l1)
	}
}

func TestParseProperties(t *testing.T) {
	src := `
property context
type NoContext
type ProcessContext < NoContext

unit Locks = {
  imports [ sched : Sched ];
  exports [ lock : Lock ];
  files { "lock.c" };
  constraints {
    context(lock) = NoContext;
    context(exports) <= context(imports);
    context(sched) >= ProcessContext;
  };
}
`
	f, err := Parse("p.unit", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Properties) != 1 {
		t.Fatalf("properties: %+v", f.Properties)
	}
	pr := f.Properties[0]
	if pr.Name != "context" || len(pr.Values) != 2 {
		t.Fatalf("property: %+v", pr)
	}
	if pr.Values[1].Name != "ProcessContext" || pr.Values[1].Below != "NoContext" {
		t.Errorf("value: %+v", pr.Values[1])
	}
	u := f.Units[0]
	if len(u.Constraints) != 3 {
		t.Fatalf("constraints: %+v", u.Constraints)
	}
	c0 := u.Constraints[0]
	if c0.LHS.Prop != "context" || c0.LHS.Arg != "lock" || c0.Op != OpEq || c0.RHS.Value != "NoContext" {
		t.Errorf("c0: %+v", c0)
	}
	c1 := u.Constraints[1]
	if c1.LHS.Arg != ExportsKeyword || c1.Op != OpLe || c1.RHS.Arg != ImportsKeyword {
		t.Errorf("c1: %+v", c1)
	}
	c2 := u.Constraints[2]
	if c2.Op != OpGe || c2.RHS.Value != "ProcessContext" {
		t.Errorf("c2: %+v", c2)
	}
}

func TestParseDependsWildcardForms(t *testing.T) {
	src := `
unit U = {
  imports [ a : T, b : T ];
  exports [ x : T, y : T ];
  depends {
    exports needs imports;
    x + y needs a;
  };
  files { "u.c" };
}
`
	f, err := Parse("u.unit", src)
	if err != nil {
		t.Fatal(err)
	}
	u := f.Units[0]
	if u.Depends[0].LHS[0] != ExportsKeyword || u.Depends[0].RHS[0] != ImportsKeyword {
		t.Errorf("wildcard dep: %+v", u.Depends[0])
	}
	if len(u.Depends[1].LHS) != 2 {
		t.Errorf("multi lhs: %+v", u.Depends[1])
	}
}

func TestParseFallbackClause(t *testing.T) {
	src := `
unit Classifier = {
  imports [ out : Push ];
  exports [ in : Push ];
  fallback ClassifierSafe;
  files { "cl.c" };
}
`
	f, err := Parse("u.unit", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Units[0].Fallback; got != "ClassifierSafe" {
		t.Errorf("Fallback = %q, want ClassifierSafe", got)
	}
	// And the printed form must carry it through a round trip.
	printed := Print(f)
	if !strings.Contains(printed, "fallback ClassifierSafe;") {
		t.Errorf("printed form lacks fallback clause:\n%s", printed)
	}
	f2, err := Parse("u.unit", printed)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if f2.Units[0].Fallback != "ClassifierSafe" {
		t.Error("fallback lost in round trip")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want, pos string }{
		{"type before property", "type X", "before any 'property'", "1:1"},
		{"empty bundletype", "bundletype T = { }", "is empty", "1:1"},
		{"dup bundle sym", "bundletype T = { a, a }", "duplicate symbol", "1:21"},
		{"files and link", `unit U = { files { "a.c" }; link { [x] <- V <- []; }; }`, "both files and link", "1:1"},
		{"value-value constraint", `unit U = { constraints { A = B; }; }`, "two literal values", "1:26"},
		{"bad section", `unit U = { bogus; }`, "expected unit section", "1:12"},
		{"unterminated string", `flags F = { "abc`, "unterminated string", "1:13"},
		{"bad char", `unit U @ {}`, "unexpected character", "1:8"},
		{"missing needs", `unit U = { depends { a b; }; }`, "needs", "1:24"},
		{"dup fallback", `unit U = { fallback A; fallback B; }`, "more than one fallback", "1:33"},
		{"self fallback", `unit U = { fallback U; }`, "names itself", "1:21"},
		// Unit files lex with cmini: the arrow is two tokens that must
		// touch, and a literal or keyword that cmini lexes is refused by
		// the parser where it stands.
		{"spaced arrow", `unit U = { link { [x] < - V <- []; }; }`, `expected "<-", found "<"`, "1:23"},
		{"char literal", `unit U = { files { 'x' }; }`, `found char literal "x"`, "1:20"},
		{"digit", `unit 3 = { }`, `found int literal "3"`, "1:6"},
		{"keyword as unit name", `unit link = { }`, `expected "identifier", found "link"`, "1:6"},
		// Tokens are lexed as the parser reaches them, so of a syntax
		// error and a later stray character the first is reported.
		{"syntax error before stray character", `unit U = { bogus; } @`, "expected unit section", "1:12"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t.unit", c.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			if got := diagtest.At(t, err, c.src); got != c.pos {
				t.Errorf("error %q at %s, want %s", err, got, c.pos)
			}
		})
	}
}

func TestParseCommentsAndPositions(t *testing.T) {
	src := "// header comment\n/* block */\nbundletype T = { a }\nunit U = { files { \"u.c\" }; }\n"
	f, err := Parse("c.unit", src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Units[0].Pos.Line != 4 {
		t.Errorf("unit pos = %v, want line 4", f.Units[0].Pos)
	}
	_, err = Parse("c.unit", "unit U = {\n  files { 3 };\n}")
	if err == nil || !strings.Contains(err.Error(), "c.unit:2") {
		t.Errorf("error should carry position line 2: %v", err)
	}
}

// TestParseCKeywordsAreNames: only the unit keywords are reserved; a C
// keyword, which cmini lexes as a keyword token, is an ordinary name.
func TestParseCKeywordsAreNames(t *testing.T) {
	f, err := Parse("k.unit", `unit U = { imports [ static : T ]; exports [ int : T ]; files { "u.c" }; }`)
	if err != nil {
		t.Fatal(err)
	}
	if u := f.Units[0]; u.Imports[0].Local != "static" || u.Exports[0].Local != "int" {
		t.Errorf("bundle locals = %+v, %+v", u.Imports, u.Exports)
	}
}
