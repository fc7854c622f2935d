package link

import (
	"sort"
	"sync"

	"knit/internal/cmini"
	"knit/internal/knit/lang"
	"knit/internal/obj"
)

// FrontEnd memoizes parsing by content: unit files, C sources and
// assembly sources, each parsed once per distinct file name and text.
// A stored tree is never changed — elaboration clones a C file for
// each instance and an assembled object before renaming it — so any
// number of elaborations may share one FrontEnd, in sequence or
// concurrently. build.Cache keeps one for the builds that share it.
// The zero value is an empty FrontEnd.
type FrontEnd struct {
	units memo[*lang.File]
	c     memo[*cmini.File]
	asm   memo[*obj.File]
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

// memo holds one language's parsed trees.
type memo[T any] struct {
	mu sync.Mutex
	m  map[srcKey]T
}

// get returns parse's tree for (name, text), parsing only on the first
// request. Goroutines that miss together may each parse, but the first
// tree stored is the one every caller gets. Errors are not stored.
func (m *memo[T]) get(name, text string, parse func(name, text string) (T, error)) (T, error) {
	k := srcKey{name, text}
	m.mu.Lock()
	v, ok := m.m[k]
	m.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := parse(name, text)
	if err != nil {
		return v, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.m[k]; ok {
		return prev, nil
	}
	if m.m == nil {
		m.m = map[srcKey]T{}
	}
	m.m[k] = v
	return v, nil
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
