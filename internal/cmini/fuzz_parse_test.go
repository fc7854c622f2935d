package cmini_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"knit/internal/clack"
	"knit/internal/cmini"
	"knit/internal/diag/diagtest"
	"knit/internal/knit/link"
	"knit/internal/oskit"
)

// cSources returns every C source in the repository: the .c files on
// disk, oskit's kernel sources and census kernel, and clack's element,
// hand-optimized and generated router sources.
func cSources(tb testing.TB) []string {
	tb.Helper()
	var out []string
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "../.." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".c") {
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
	_, census, _ := oskit.CensusKernel(100, 35)
	g, err := clack.ParseConfig(clack.StandardRouterConfig)
	if err != nil {
		tb.Fatal(err)
	}
	_, router, _, err := g.CompileToKnit("ClackRouter")
	if err != nil {
		tb.Fatal(err)
	}
	for _, srcs := range []link.Sources{oskit.KernelSources(), census, clack.ElementSources(), clack.HandOptSources(), router} {
		names := make([]string, 0, len(srcs))
		for name := range srcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, srcs[name])
		}
	}
	return out
}

// FuzzParse: any text either parses or is refused with a *diag.Error
// positioned inside it, and an accepted text prints to a form that
// reparses and prints the same.
func FuzzParse(f *testing.F) {
	for _, src := range cSources(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := cmini.Parse("fuzz.c", src)
		if err != nil {
			diagtest.At(t, err, src)
			return
		}
		printed := cmini.Print(f1)
		f2, err := cmini.Parse("fuzz.c", printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\n%s", err, printed)
		}
		if again := cmini.Print(f2); again != printed {
			t.Fatalf("print → parse → print changed the file\n-- input --\n%s\n-- printed --\n%s\n-- again --\n%s", src, printed, again)
		}
	})
}
