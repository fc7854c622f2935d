package assemble

import (
	"strings"
	"testing"

	"knit/internal/diag/diagtest"
	"knit/internal/knit/lang"
)

func TestParseGoalFull(t *testing.T) {
	g, err := ParseGoal("t.goal", `
// a console that is interrupt-safe
goal SafeConsole;
export out : PutChar;
export pf : Printf;          # two exports
bound context(out) <= NoContext;
bound context(exports) >= ProcessContext;
use SerialDev, StringU;
avoid ConsoleDev;
top HelloKernel;
limit 12;
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "SafeConsole" || g.Top != "HelloKernel" || g.Limit != 12 {
		t.Fatalf("header fields wrong: %+v", g)
	}
	if len(g.Exports) != 2 || g.Exports[0] != (lang.Binding{Local: "out", Type: "PutChar"}) {
		t.Fatalf("exports = %+v", g.Exports)
	}
	if len(g.Bounds) != 2 || g.Bounds[0].Op != lang.OpLe || g.Bounds[1].Arg != lang.ExportsKeyword {
		t.Fatalf("bounds = %+v", g.Bounds)
	}
	if strings.Join(g.Use, ",") != "SerialDev,StringU" || strings.Join(g.Avoid, ",") != "ConsoleDev" {
		t.Fatalf("use/avoid = %v / %v", g.Use, g.Avoid)
	}
}

func TestGoalStringRoundTrip(t *testing.T) {
	src := `goal G;
export out : PutChar;
bound context(out) <= NoContext;
use SerialDev;
avoid ConsoleDev;
top HelloKernel;
limit 7;
`
	g, err := ParseGoal("t.goal", src)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseGoal("rt.goal", g.String())
	if err != nil {
		t.Fatalf("round trip reparse: %v", err)
	}
	if g.String() != g2.String() {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", g, g2)
	}
}

func TestParseGoalErrors(t *testing.T) {
	cases := []struct {
		name, src, want, pos string
	}{
		{"no exports", `goal G;`, "no exports", "1:8"},
		{"dup local", `export a : T; export a : U;`, "declared twice", "1:15"},
		{"dup goal", `goal A; goal B; export a : T;`, "twice", "1:9"},
		{"dup top", `export a : T; top A; top B;`, "twice", "1:22"},
		{"bad bound", `export a : T; bound context a <= V;`, "bound", "1:15"},
		{"bad op", `export a : T; bound context(a) < V;`, "bad operator", "1:15"},
		{"bad limit", `export a : T; limit zero;`, "bad limit", "1:15"},
		{"neg limit", `export a : T; limit -3;`, "bad limit", "1:15"},
		{"unknown directive", `export a : T; wibble;`, "unknown directive", "1:15"},
		{"trailing junk", `export a : T; garbage here`, "unknown directive", "1:15"},
		{"bad ident", `export 9a : T;`, "export", "1:1"},
		{"columns after a # comment", "export a : T; # one; two\n  use 9;", "bad unit name", "2:3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGoal("t.goal", tc.src)
			if err == nil {
				t.Fatalf("parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if got := diagtest.At(t, err, tc.src); got != tc.pos {
				t.Errorf("error %q at %s, want %s", err, got, tc.pos)
			}
		})
	}
}
