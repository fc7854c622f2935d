// Package diag holds the one source position and the one positioned
// error that every input language reports through: unit files, cmini,
// assembly, Click configurations, supervision policies and assembly
// goals. An error about one clause of an input is positioned at that
// clause; an error about the input as a whole, at its end (End).
package diag

import (
	"fmt"
	"strings"
)

// Pos is a position in an input: a 1-based line and byte column, and
// the input's file name when it has one.
type Pos struct {
	File string
	Line int
	Col  int
}

// String formats the position as file:line:col, or line:col when the
// input has no file name.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// End returns the position just past the last byte of src.
func End(file, src string) Pos {
	return Pos{File: file, Line: strings.Count(src, "\n") + 1, Col: len(src) - strings.LastIndexByte(src, '\n')}
}

// Error is an error at a position in an input, in the manner of hcl's
// PosError. An Error with a zero Pos is about no position at all, such
// as a top unit named on the command line, and prints Err alone.
type Error struct {
	Pos Pos
	Err error
}

func (e *Error) Error() string {
	if e.Pos == (Pos{}) {
		return e.Err.Error()
	}
	return e.Pos.String() + ": " + e.Err.Error()
}

func (e *Error) Unwrap() error { return e.Err }

// Errorf returns an *Error at pos whose Err is fmt.Errorf(format, args...).
func Errorf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Err: fmt.Errorf(format, args...)}
}
