// Package diagtest is the front ends' shared test oracle for positioned
// errors.
package diagtest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"knit/internal/diag"
)

// At fails t unless err is a *diag.Error whose position lies inside
// src: on one of its lines, at most one column past that line's end.
// It returns the position as "line:col".
func At(t testing.TB, err error, src string) string {
	t.Helper()
	var de *diag.Error
	if !errors.As(err, &de) {
		t.Fatalf("error %q (%T) is not a *diag.Error", err, err)
	}
	lines := strings.Split(src, "\n")
	p := de.Pos
	if p.Line < 1 || p.Line > len(lines) || p.Col < 1 || p.Col > len(lines[p.Line-1])+1 {
		t.Fatalf("error %q is positioned outside its input %q", err, src)
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}
