package lang_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"knit/internal/clack"
	"knit/internal/diag/diagtest"
	"knit/internal/knit/lang"
	"knit/internal/oskit"
)

// unitTexts returns every unit text in the repository: the .unit files
// on disk, oskit's units and census kernel, and clack's element,
// hand-optimized and generated router units.
func unitTexts(tb testing.TB) []string {
	tb.Helper()
	var out []string
	err := filepath.WalkDir("../../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "../../.." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".unit") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			out = append(out, string(data))
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	census, _, _ := oskit.CensusKernel(100, 35)
	out = append(out, oskit.Units(), census, clack.ElementUnits, clack.HandOptUnits)
	g, err := clack.ParseConfig(clack.StandardRouterConfig)
	if err != nil {
		tb.Fatal(err)
	}
	router, _, _, err := g.CompileToKnit("ClackRouter")
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, router)
}

// FuzzParse: every error is a *diag.Error inside the input, and an
// accepted input survives print → parse unchanged.
func FuzzParse(f *testing.F) {
	for _, src := range unitTexts(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := lang.Parse("fuzz.unit", src)
		if err != nil {
			diagtest.At(t, err, src)
			return
		}
		printed := lang.Print(f1)
		f2, err := lang.Parse("fuzz.unit", printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\n%s", err, printed)
		}
		lang.StripPos(f1)
		lang.StripPos(f2)
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("print → parse changed the file\n-- input --\n%s\n-- printed --\n%s", src, printed)
		}
	})
}
