package diag

import (
	"errors"
	"io"
	"testing"
)

func TestErrorFormatsAndUnwraps(t *testing.T) {
	cases := []struct {
		err  *Error
		want string
	}{
		{&Error{Pos: Pos{File: "a.unit", Line: 3, Col: 7}, Err: io.EOF}, "a.unit:3:7: EOF"},
		{&Error{Pos: Pos{Line: 3, Col: 7}, Err: io.EOF}, "3:7: EOF"},
		{&Error{Err: io.EOF}, "EOF"},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
		if !errors.Is(c.err, io.EOF) {
			t.Errorf("%q does not unwrap to its Err", c.err)
		}
	}
}

func TestEnd(t *testing.T) {
	for src, want := range map[string]Pos{
		"":         {File: "f", Line: 1, Col: 1},
		"ab":       {File: "f", Line: 1, Col: 3},
		"ab\n":     {File: "f", Line: 2, Col: 1},
		"ab\ncde":  {File: "f", Line: 2, Col: 4},
		"\n\n\nxy": {File: "f", Line: 4, Col: 3},
	} {
		if got := End("f", src); got != want {
			t.Errorf("End(%q) = %v, want %v", src, got, want)
		}
	}
}
