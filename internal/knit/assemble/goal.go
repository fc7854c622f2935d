// Package assemble inverts the constraint checker: instead of rejecting
// a bad composition, it searches a unit repository for compositions that
// satisfy a declarative goal — the exports wanted, property bounds such
// as "context(out) <= NoContext", units that must or must not appear —
// ranks the satisfying wirings by predicted cost (flattened text size
// plus init-schedule cycles from the machine model), and emits the
// winner as printable .unit source that round-trips through the real
// build pipeline as verification.
//
// The search is a backtracking enumeration over export providers. Each
// partial assembly is checked with the §4 poset solver as it is
// extended (constraint.CheckAssembly treats unwired imports as
// unconstrained, and narrowing is monotone, so a violation in a prefix
// is final); dead branches are pruned instead of validating only
// complete candidates. An unsatisfiable goal yields an *UnsatError
// naming the blocking constraint or missing export, never a wiring.
package assemble

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"knit/internal/cmini"
	"knit/internal/diag"
	"knit/internal/knit/lang"
)

// Goal is a declarative assembly request over a unit repository.
type Goal struct {
	// Name labels the goal; generated units are named after it.
	Name string
	// Exports are the bundles the assembly must provide, with the local
	// names the emitted compound unit exports them under.
	Exports []lang.Binding
	// Bounds are property bounds on the goal's exports, e.g.
	// "context(out) <= NoContext". Arg may be an export local or the
	// keyword "exports" (every export).
	Bounds []GoalBound
	// Use lists units that must appear in the assembly; each is
	// instantiated up front and its exports become available for reuse.
	Use []string
	// Avoid lists units that must not appear, directly or inside a
	// compound provider.
	Avoid []string
	// Top, when non-empty, fixes the unit that must provide every goal
	// export — the assembly's entry component.
	Top string
	// Limit caps the number of unit instances the search may place
	// (0 = the assembler's default).
	Limit int
}

// GoalBound is one property bound of a goal.
type GoalBound struct {
	Prop  string
	Arg   string // export local or "exports"
	Op    lang.ConstraintOp
	Value string
}

func (b GoalBound) String() string {
	return fmt.Sprintf("%s(%s) %s %s", b.Prop, b.Arg, b.Op, b.Value)
}

// String renders the goal back to its concrete syntax; the output
// reparses to an equivalent goal.
func (g *Goal) String() string {
	var sb strings.Builder
	if g.Name != "" {
		fmt.Fprintf(&sb, "goal %s;\n", g.Name)
	}
	for _, e := range g.Exports {
		fmt.Fprintf(&sb, "export %s : %s;\n", e.Local, e.Type)
	}
	for _, b := range g.Bounds {
		fmt.Fprintf(&sb, "bound %s;\n", b)
	}
	for _, u := range g.Use {
		fmt.Fprintf(&sb, "use %s;\n", u)
	}
	for _, u := range g.Avoid {
		fmt.Fprintf(&sb, "avoid %s;\n", u)
	}
	if g.Top != "" {
		fmt.Fprintf(&sb, "top %s;\n", g.Top)
	}
	if g.Limit > 0 {
		fmt.Fprintf(&sb, "limit %d;\n", g.Limit)
	}
	return sb.String()
}

// ParseGoal parses a goal-spec file. The format is lexically C, with
// one statement per semicolon:
//
//	goal SafeConsole;              // optional label
//	export out : PutChar;          // repeatable
//	bound context(out) <= NoContext;
//	use SerialDev;                 // required units
//	avoid ConsoleDev;              // forbidden units
//	top HelloKernel;               // optional fixed entry provider
//	limit 12;                      // optional instance cap
//
// Comments are C's, and also run from "#" to end of line. Errors are
// *diag.Error values positioned in the file.
func ParseGoal(name, text string) (*Goal, error) {
	lexed, err := cmini.LexAll(name, blankHashComments(text))
	if err != nil {
		return nil, err
	}
	g := &Goal{}
	seenLocal := map[string]bool{}
	for ln, stmt := range cmini.Statements(lexed) {
		if len(stmt) == 0 {
			continue
		}
		toks := make([]string, len(stmt))
		for i, t := range stmt {
			toks[i] = t.String()
		}
		fail := func(format string, args ...any) error {
			return diag.Errorf(stmt[0].Pos, "statement %d (%q): %s", ln+1,
				cmini.Text(stmt), fmt.Sprintf(format, args...))
		}
		switch toks[0] {
		case "goal":
			if len(toks) != 2 || !stmt[1].IsWord() {
				return nil, fail("want 'goal Name'")
			}
			if g.Name != "" {
				return nil, fail("goal name declared twice")
			}
			g.Name = toks[1]
		case "export":
			if len(toks) != 4 || toks[2] != ":" || !stmt[1].IsWord() || !stmt[3].IsWord() {
				return nil, fail("want 'export local : BundleType'")
			}
			if seenLocal[toks[1]] {
				return nil, fail("export local %q declared twice", toks[1])
			}
			seenLocal[toks[1]] = true
			g.Exports = append(g.Exports, lang.Binding{Local: toks[1], Type: toks[3]})
		case "bound":
			// bound prop ( arg ) op Value
			if len(toks) != 7 || toks[2] != "(" || toks[4] != ")" ||
				!stmt[1].IsWord() || !stmt[3].IsWord() || !stmt[6].IsWord() {
				return nil, fail("want 'bound prop(arg) <=|>=|= Value'")
			}
			op, ok := parseOp(toks[5])
			if !ok {
				return nil, fail("bad operator %q", toks[5])
			}
			g.Bounds = append(g.Bounds, GoalBound{Prop: toks[1], Arg: toks[3], Op: op, Value: toks[6]})
		case "use", "avoid":
			if len(toks) < 2 {
				return nil, fail("want '%s Unit[, Unit...]'", toks[0])
			}
			for _, u := range stmt[1:] {
				if u.Kind == cmini.COMMA {
					continue
				}
				if !u.IsWord() {
					return nil, fail("bad unit name %q", u)
				}
				if toks[0] == "use" {
					g.Use = appendIfAbsent(g.Use, u.Lit)
				} else {
					g.Avoid = appendIfAbsent(g.Avoid, u.Lit)
				}
			}
		case "top":
			if len(toks) != 2 || !stmt[1].IsWord() {
				return nil, fail("want 'top Unit'")
			}
			if g.Top != "" {
				return nil, fail("top declared twice")
			}
			g.Top = toks[1]
		case "limit":
			if len(toks) < 2 {
				return nil, fail("want 'limit N'")
			}
			n, err := strconv.Atoi(cmini.Text(stmt[1:]))
			if err != nil || n <= 0 {
				return nil, fail("bad limit %q", cmini.Text(stmt[1:]))
			}
			g.Limit = n
		default:
			return nil, fail("unknown directive %q", toks[0])
		}
	}
	if len(g.Exports) == 0 {
		return nil, diag.Errorf(diag.End(name, text), "goal declares no exports")
	}
	sort.Strings(g.Use)
	sort.Strings(g.Avoid)
	return g, nil
}

// blankHashComments turns each "#" comment, which C lacks, into spaces,
// so that every other byte keeps its position.
func blankHashComments(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if j := strings.IndexByte(l, '#'); j >= 0 {
			lines[i] = l[:j] + strings.Repeat(" ", len(l)-j)
		}
	}
	return strings.Join(lines, "\n")
}

func parseOp(s string) (lang.ConstraintOp, bool) {
	switch s {
	case "=":
		return lang.OpEq, true
	case "<=":
		return lang.OpLe, true
	case ">=":
		return lang.OpGe, true
	}
	return 0, false
}

func appendIfAbsent(dst []string, s string) []string {
	for _, d := range dst {
		if d == s {
			return dst
		}
	}
	return append(dst, s)
}
