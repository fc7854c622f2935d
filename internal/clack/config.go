package clack

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"knit/internal/cmini"
	"knit/internal/diag"
	"knit/internal/knit/link"
)

// This file implements Clack's configuration front end: a parser for the
// Click router language —
//
//	fd0 :: FromDevice(0);
//	cl0 :: Classifier;
//	fd0 -> cl0;
//	cl0[1] -> ar0;
//
// — and a compiler from that graph to a Knit compound unit, showing (as
// the paper does in §5.2) that Knit can express both Click's component
// implementations and its linking language.

// elemType describes one element class: its Knit unit, output ports (in
// the order of the unit's Push imports), and whether it takes a device
// argument, exports a Step source, or exports a Stat bundle.
type elemType struct {
	unit     string
	outs     []string // names of Push output ports, in import order
	needsDev bool
	isSource bool // exports Step instead of Push
	hasStat  bool
	noInput  bool // exports no Push input (only sources)
}

var elemTypes = map[string]elemType{
	"FromDevice":    {unit: "FromDevice", outs: []string{"out"}, needsDev: true, isSource: true, noInput: true},
	"Classifier":    {unit: "Classifier", outs: []string{"ip", "arp", "other"}},
	"ARPResponder":  {unit: "ARPResponder", outs: []string{"out"}},
	"CheckIPHeader": {unit: "CheckIPHeader", outs: []string{"out", "bad"}},
	"LookupIPRoute": {unit: "LookupIPRoute", outs: []string{"port0", "port1"}},
	"DecIPTTL":      {unit: "DecIPTTL", outs: []string{"out", "expired"}},
	"FixIPChecksum": {unit: "FixIPChecksum", outs: []string{"out"}},
	"EthEncap":      {unit: "EthEncap", outs: []string{"out"}, needsDev: true},
	"Queue":         {unit: "Queue", outs: []string{"out"}},
	"Counter":       {unit: "Counter", outs: []string{"out"}, hasStat: true},
	"ToDevice":      {unit: "ToDevice", outs: nil, needsDev: true},
	"Discard":       {unit: "Discard", outs: nil},
}

// Element is one declared element instance.
type Element struct {
	Name string
	Type string
	Arg  int // device number for FromDevice/EthEncap/ToDevice
	// conns[i] = name of the element connected to output port i.
	conns []string
	pos   diag.Pos // of the declaration
}

// NumPorts returns the element's output port count.
func (e *Element) NumPorts() int { return len(e.conns) }

// Conn returns the name of the element connected to output port i.
func (e *Element) Conn(i int) string { return e.conns[i] }

// Graph is a parsed Click configuration.
type Graph struct {
	Elements []*Element
	byName   map[string]*Element
	end      diag.Pos // of the configuration text
}

// ParseConfig parses the Click-syntax configuration language, which is
// lexically C: C identifiers, integers and comments. Statements end
// with ';', which the last may omit. Declarations are "name :: Type" or
// "name :: Type(arg)". Connections are "a -> b" and chains "a -> b -> c".
// A hop's one port selector, "a [n]" or "[n] a", picks the output port
// it sends from (default 0); on the receiving side it must be [0], as
// Clack elements have a single input. Errors are *diag.Error values
// positioned in src.
func ParseConfig(src string) (*Graph, error) {
	toks, err := cmini.LexAll("", src)
	if err != nil {
		return nil, err
	}
	g := &Graph{byName: map[string]*Element{}, end: diag.End("", src)}
	for _, s := range cmini.Statements(toks) {
		if len(s) == 0 {
			continue
		}
		if err := g.statement(s); err != nil {
			return nil, err
		}
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// statement parses one declaration or connection.
func (g *Graph) statement(s []cmini.Token) error {
	for c := 0; c+1 < len(s); c++ {
		if s[c].Kind == cmini.COLON && s[c+1].Kind == cmini.COLON {
			return g.parseDecl(s, c)
		}
	}
	for _, t := range s {
		if t.Kind == cmini.ARROW {
			return g.parseConn(s)
		}
	}
	return diag.Errorf(s[0].Pos, "cannot parse statement %q", cmini.Text(s))
}

// parseDecl handles "name :: Type" and "name :: Type(arg)", whose "::"
// is at s[c].
func (g *Graph) parseDecl(s []cmini.Token, c int) error {
	name, class, at := s[:c], s[c+2:], s[c+1].Pos
	arg := 0
	if len(class) > 1 && class[1].Kind == cmini.LPAREN {
		args := class[2:]
		if len(args) == 0 || args[len(args)-1].Kind != cmini.RPAREN {
			return diag.Errorf(class[1].Pos, "unbalanced parentheses")
		}
		if args = args[:len(args)-1]; len(args) > 0 {
			n, ok := number(args)
			if !ok {
				return diag.Errorf(args[0].Pos, "bad argument %q", cmini.Text(args))
			}
			arg = n
		}
		class = class[:1]
	}
	if len(class) > 0 {
		at = class[0].Pos
	}
	et, ok := elemTypes[cmini.Text(class)]
	if !ok {
		return diag.Errorf(at, "unknown element class %q", cmini.Text(class))
	}
	if len(name) != 1 || !name[0].IsWord() {
		return diag.Errorf(s[0].Pos, "bad element name %q", cmini.Text(name))
	}
	if _, dup := g.byName[name[0].Lit]; dup {
		return diag.Errorf(name[0].Pos, "element %q redeclared", name[0].Lit)
	}
	e := &Element{Name: name[0].Lit, Type: class[0].Lit, Arg: arg, conns: make([]string, len(et.outs)), pos: name[0].Pos}
	g.Elements = append(g.Elements, e)
	g.byName[e.Name] = e
	return nil
}

// parseConn handles "a [p] -> b -> c": each hop sends from the output
// port its selector names into the next hop, whose selector, if any,
// must be [0].
func (g *Graph) parseConn(s []cmini.Token) error {
	hops := [][]cmini.Token{nil}
	for _, t := range s {
		if t.Kind == cmini.ARROW {
			hops = append(hops, nil)
		} else {
			hops[len(hops)-1] = append(hops[len(hops)-1], t)
		}
	}
	for h := 0; h+1 < len(hops); h++ {
		from, outPort, fromAt, err := g.endpoint(hops[h], s[0].Pos)
		if err != nil {
			return err
		}
		to, inPort, toAt, err := g.endpoint(hops[h+1], s[0].Pos)
		if err != nil {
			return err
		}
		if inPort != 0 && h+1 < len(hops)-1 {
			return diag.Errorf(toAt, "input port selector on a chained hop")
		}
		if inPort != 0 {
			return diag.Errorf(toAt, "element %q has a single input port", to.Name)
		}
		if outPort < 0 || outPort >= len(from.conns) {
			return diag.Errorf(fromAt, "element %q (%s) has %d output ports, port %d used",
				from.Name, from.Type, len(from.conns), outPort)
		}
		if from.conns[outPort] != "" {
			return diag.Errorf(fromAt, "output port %d of %q connected twice", outPort, from.Name)
		}
		if elemTypes[to.Type].noInput {
			return diag.Errorf(toAt, "%q connects to %q (%s), which has no input", from.Name, to.Name, to.Type)
		}
		from.conns[outPort] = to.Name
	}
	return nil
}

// endpoint parses one hop of a connection, "name", "name [p]" or
// "[p] name", into its element, its port and its position; at stands in
// for the position of an empty hop.
func (g *Graph) endpoint(hop []cmini.Token, at diag.Pos) (*Element, int, diag.Pos, error) {
	if len(hop) > 0 {
		at = hop[0].Pos
	}
	var sel []cmini.Token
	switch {
	case len(hop) > 0 && hop[0].Kind == cmini.LBRACK:
		j := 1
		for j < len(hop) && hop[j].Kind != cmini.RBRACK {
			j++
		}
		if j == len(hop) {
			return nil, 0, at, diag.Errorf(at, "unbalanced port selector")
		}
		sel, hop = hop[1:j], hop[j+1:]
	case len(hop) > 1 && hop[1].Kind == cmini.LBRACK:
		if hop[len(hop)-1].Kind != cmini.RBRACK {
			return nil, 0, at, diag.Errorf(hop[1].Pos, "unbalanced port selector")
		}
		sel, hop = hop[2:len(hop)-1], hop[:1]
	}
	var e *Element
	if len(hop) == 1 {
		e = g.byName[hop[0].Lit]
	}
	if e == nil {
		return nil, 0, at, diag.Errorf(at, "unknown element %q", cmini.Text(hop))
	}
	port, ok := 0, true
	if sel != nil {
		port, ok = number(sel)
	}
	if !ok {
		return nil, 0, at, diag.Errorf(at, "bad port selector %q", cmini.Text(sel))
	}
	return e, port, at, nil
}

// number reads the optionally signed decimal integer that is all of s.
func number(s []cmini.Token) (int, bool) {
	sign := ""
	if len(s) == 2 && (s[0].Kind == cmini.MINUS || s[0].Kind == cmini.PLUS) {
		sign, s = s[0].Kind.String(), s[1:]
	}
	if len(s) != 1 || s[0].Kind != cmini.INT {
		return 0, false
	}
	n, err := strconv.Atoi(sign + s[0].Lit)
	return n, err == nil
}

func (g *Graph) validate() error {
	if len(g.Elements) == 0 {
		return diag.Errorf(g.end, "empty configuration")
	}
	for _, e := range g.Elements {
		for p, to := range e.conns {
			if to == "" {
				return diag.Errorf(e.pos, "output port %d of %q (%s) is not connected", p, e.Name, e.Type)
			}
		}
	}
	return nil
}

// Sources returns the graph's source elements (FromDevice instances) in
// declaration order.
func (g *Graph) Sources() []*Element {
	var out []*Element
	for _, e := range g.Elements {
		if elemTypes[e.Type].isSource {
			out = append(out, e)
		}
	}
	return out
}

// Counters returns the graph's Counter elements in declaration order.
func (g *Graph) Counters() []*Element {
	var out []*Element
	for _, e := range g.Elements {
		if elemTypes[e.Type].hasStat {
			out = append(out, e)
		}
	}
	return out
}

// laneStep is one source the router driver polls: its step function and
// the device lane it reads.
type laneStep struct {
	fn   string
	lane int
}

// routerDriver generates the RouterDriver unit over its sources, in poll
// order, and the unit's one file, driver.c. kmain polls every source,
// running the kernel's between-packet work (os_work) after each poll,
// until the traffic runs dry. turn serves one lane: one step of that
// lane's source, then one os_work. A lane is a device number, as in the
// NIC's ingress queues.
func routerDriver(steps []laneStep) (unit, src string) {
	var imports, deps, renames, decls, polls, turns strings.Builder
	for i, s := range steps {
		fmt.Fprintf(&imports, "s%d : Step, ", i)
		fmt.Fprintf(&deps, "s%d + ", i)
		fmt.Fprintf(&renames, "\n    s%d.step to %s;", i, s.fn)
		fmt.Fprintf(&decls, "int %s(void);\n", s.fn)
		fmt.Fprintf(&polls, "        got += %s();\n        os_work();\n", s.fn)
		fmt.Fprintf(&turns, "    if (lane == %d) { got += %s(); }\n", s.lane, s.fn)
	}
	unit = fmt.Sprintf(`
unit RouterDriver = {
  imports [ %sosw : OsWork ];
  exports [ main : Main ];
  depends { main needs (%sosw); };
  files { "driver.c" };
  rename {%s
  };
}
`, imports.String(), deps.String(), renames.String())
	src = fmt.Sprintf(`%sint os_work(void);

int kmain(int maxiter) {
    int n = 0;
    for (int i = 0; i < maxiter; i++) {
        int got = 0;
%s        if (got == 0) { break; }
        n += got;
    }
    return n;
}

int turn(int lane) {
    int got = 0;
%s    os_work();
    return got;
}
`, decls.String(), polls.String(), turns.String())
	return unit, src
}

// CompileToKnit translates the graph into a Knit compound unit plus a
// generated driver, returning the unit-language text (to be combined
// with ElementUnits), the generated sources, and the top unit name.
func (g *Graph) CompileToKnit(topName string) (units string, sources link.Sources, top string, err error) {
	sources = link.Sources{}
	var b strings.Builder

	srcs := g.Sources()
	if len(srcs) == 0 {
		return "", nil, "", diag.Errorf(g.end, "configuration has no FromDevice")
	}

	var steps []laneStep
	for _, s := range srcs {
		steps = append(steps, laneStep{fn: "step_" + s.Name, lane: s.Arg})
	}
	drvUnit, drvSrc := routerDriver(steps)
	b.WriteString(drvUnit)
	sources["driver.c"] = drvSrc

	// Compound unit. Each element's input port is bound under its own
	// name; Step exports as <name>_step; Stat exports as <name>_stat.
	fmt.Fprintf(&b, "\nunit %s = {\n  exports [ main : Main ];\n  link {\n", topName)

	// Device-number providers, one per distinct device argument.
	devs := map[int]bool{}
	for _, e := range g.Elements {
		if elemTypes[e.Type].needsDev {
			if e.Arg != 0 && e.Arg != 1 {
				return "", nil, "", diag.Errorf(e.pos, "device %d not available (devices 0 and 1 exist)", e.Arg)
			}
			devs[e.Arg] = true
		}
	}
	var devNums []int
	for d := range devs {
		devNums = append(devNums, d)
	}
	sort.Ints(devNums)
	for _, d := range devNums {
		fmt.Fprintf(&b, "    [dev%d] <- DevNo%d <- [];\n", d, d)
	}

	for _, e := range g.Elements {
		et := elemTypes[e.Type]
		var outs, ins []string
		if et.isSource {
			outs = append(outs, e.Name+"_step")
		} else {
			outs = append(outs, e.Name)
		}
		if et.hasStat {
			outs = append(outs, e.Name+"_stat")
		}
		for _, to := range e.conns {
			ins = append(ins, to)
		}
		if et.needsDev {
			ins = append(ins, fmt.Sprintf("dev%d", e.Arg))
		}
		fmt.Fprintf(&b, "    [%s] <- %s <- [%s];\n",
			strings.Join(outs, ", "), et.unit, strings.Join(ins, ", "))
	}
	b.WriteString("    [osw] <- OSWork <- [];\n")
	var drvIns []string
	for _, s := range srcs {
		drvIns = append(drvIns, s.Name+"_step")
	}
	drvIns = append(drvIns, "osw")
	fmt.Fprintf(&b, "    [main] <- RouterDriver <- [%s];\n  };\n}\n",
		strings.Join(drvIns, ", "))

	return b.String(), sources, topName, nil
}
