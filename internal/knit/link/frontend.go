package link

import (
	"sort"
	"sync"

	"knit/internal/cmini"
	"knit/internal/diag"
	"knit/internal/knit/lang"
	"knit/internal/obj"
)

// FrontEnd memoizes parsing by content: unit files, C sources and
// assembly sources, each parsed once per distinct file name and text.
// Parsing is single-flight: elaborations that ask for a file while
// another is parsing it wait for that tree rather than parse it again.
// A stored tree is never changed — an instance renames a copy of a C
// file (Instance.RenamedFile) and of an assembled object — so any
// number of elaborations may share one FrontEnd, in sequence or
// concurrently. build.Cache keeps one for the builds that share it and
// the live operations on their results.
// The zero value is an empty FrontEnd.
type FrontEnd struct {
	units memo[*lang.File]
	c     memo[*cSource]
	asm   memo[*obj.File]
}

// cSource is a parsed C file and the symbol facts elaboration reads from
// it, derived once per distinct file and kept as long as the tree.
type cSource struct {
	tree    *cmini.File
	decls   []declFact // top-level variables and functions, in order
	refs    []refFact  // global names referenced, each once, in order of first reference
	statics []string   // names the file defines as statics
}

// declFact is one top-level variable or function declaration.
type declFact struct {
	name  string
	index int32 // in tree.Decls
	// static marks a file-scoped definition: a static variable, or a
	// static function with a body.
	static bool
	// global marks a definition the unit's other files see: a variable
	// neither extern nor static, or a function with a body that is not
	// static.
	global bool
	again  bool // an earlier declaration has the same name
}

// refFact is a global name's first reference in a file.
type refFact struct {
	name      string
	line, col int32
	declared  bool // the file declares the name too
}

// pos returns the reference's position in src.
func (r *refFact) pos(src *cSource) diag.Pos {
	return diag.Pos{File: src.tree.Name, Line: int(r.line), Col: int(r.col)}
}

// parseC parses a C file and derives its facts.
func parseC(name, text string) (*cSource, error) {
	f, err := cmini.Parse(name, text)
	if err != nil {
		return nil, err
	}
	src := &cSource{tree: f, decls: make([]declFact, 0, len(f.Decls))}
	declared := make(map[string]bool, len(f.Decls))
	for i, d := range f.Decls {
		var fact declFact
		switch d := d.(type) {
		case *cmini.VarDecl:
			fact = declFact{name: d.Name, static: d.Static, global: !d.Extern && !d.Static}
		case *cmini.FuncDecl:
			def := d.Body != nil
			fact = declFact{name: d.Name, static: def && d.Static, global: def && !d.Static}
		default:
			continue
		}
		fact.index, fact.again = int32(i), declared[fact.name]
		declared[fact.name] = true
		if fact.static {
			src.statics = append(src.statics, fact.name)
		}
		src.decls = append(src.decls, fact)
	}
	refs := cmini.GlobalRefs(f)
	src.refs = make([]refFact, len(refs))
	for i, id := range refs {
		src.refs[i] = refFact{id.Name, int32(id.Pos.Line), int32(id.Pos.Col), declared[id.Name]}
	}
	return src, nil
}

// ParseUnitFiles parses unit-definition files in deterministic
// (sorted-name) order, ready for NewRegistry.
func (fe *FrontEnd) ParseUnitFiles(unitFiles map[string]string) ([]*lang.File, error) {
	names := make([]string, 0, len(unitFiles))
	for name := range unitFiles {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*lang.File, 0, len(names))
	for _, name := range names {
		f, err := fe.units.get(name, unitFiles[name], lang.Parse)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// srcKey identifies one source by file name and text.
type srcKey struct{ name, text string }

// memo holds one language's parsed trees, a channel for each file being
// parsed that is closed when its parse ends, and how many parses ran.
type memo[T any] struct {
	mu      sync.Mutex
	m       map[srcKey]T
	parsing map[srcKey]chan struct{}
	parses  int
}

// get returns parse's tree for (name, text), parsing only on the first
// request. A request that arrives while the file is being parsed waits
// for that parse. A failed parse is not stored: its waiters wake and
// parse the file themselves, so each caller gets its own error.
func (m *memo[T]) get(name, text string, parse func(name, text string) (T, error)) (T, error) {
	k := srcKey{name, text}
	m.mu.Lock()
	for {
		if v, ok := m.m[k]; ok {
			m.mu.Unlock()
			return v, nil
		}
		done, ok := m.parsing[k]
		if !ok {
			break
		}
		m.mu.Unlock()
		<-done
		m.mu.Lock()
	}
	done := make(chan struct{})
	if m.parsing == nil {
		m.parsing = map[srcKey]chan struct{}{}
	}
	m.parsing[k] = done
	m.parses++
	m.mu.Unlock()

	v, err := parse(name, text)
	m.mu.Lock()
	delete(m.parsing, k)
	if err == nil {
		if m.m == nil {
			m.m = map[srcKey]T{}
		}
		m.m[k] = v
	}
	m.mu.Unlock()
	close(done)
	return v, err
}

// Len reports how many distinct parsed files fe holds.
func (fe *FrontEnd) Len() int {
	return fe.units.len() + fe.c.len() + fe.asm.len()
}

func (m *memo[T]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
