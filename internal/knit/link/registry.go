// Package link elaborates Knit unit definitions into a flat program of
// atomic-unit instances with explicitly wired symbols — the core of
// Knit's linking model (paper §2.3 and §3). It supports hierarchical
// compound units, cyclic wiring among siblings, renaming, interposition,
// and multiple instantiation of a unit (each instance gets its own copy
// of code and state, as the real Knit does with a modified objcopy).
package link

import (
	"knit/internal/diag"
	"knit/internal/knit/lang"
)

// Registry holds all unit-language declarations visible to a build.
type Registry struct {
	// Files are the parsed files the registry was built from, in order;
	// a registry that extends this one is built over them plus its own.
	Files       []*lang.File
	BundleTypes map[string]*lang.BundleType
	FlagSets    map[string]*lang.FlagSet
	Properties  map[string]*lang.Property
	Units       map[string]*lang.Unit
}

// NewRegistry builds a registry from parsed unit files, rejecting a
// duplicate name at its later declaration.
func NewRegistry(files ...*lang.File) (*Registry, error) {
	r := &Registry{
		Files:       files,
		BundleTypes: map[string]*lang.BundleType{},
		FlagSets:    map[string]*lang.FlagSet{},
		Properties:  map[string]*lang.Property{},
		Units:       map[string]*lang.Unit{},
	}
	for _, f := range files {
		for _, bt := range f.BundleTypes {
			if _, dup := r.BundleTypes[bt.Name]; dup {
				return nil, diag.Errorf(bt.Pos, "bundletype %q redefined", bt.Name)
			}
			r.BundleTypes[bt.Name] = bt
		}
		for _, fs := range f.FlagSets {
			if _, dup := r.FlagSets[fs.Name]; dup {
				return nil, diag.Errorf(fs.Pos, "flags %q redefined", fs.Name)
			}
			r.FlagSets[fs.Name] = fs
		}
		for _, pr := range f.Properties {
			if _, dup := r.Properties[pr.Name]; dup {
				return nil, diag.Errorf(pr.Pos, "property %q redefined", pr.Name)
			}
			r.Properties[pr.Name] = pr
		}
		for _, u := range f.Units {
			if _, dup := r.Units[u.Name]; dup {
				return nil, diag.Errorf(u.Pos, "unit %q redefined", u.Name)
			}
			r.Units[u.Name] = u
		}
	}
	return r, nil
}
