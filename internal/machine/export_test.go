package machine

import (
	"slices"

	"knit/internal/obj"
)

// DenseInit is the reference for an image's initial data: the dense
// segment of DataWords words, zeros included, built the way Load built
// it before the image kept only its runs of nonzero words — every
// string literal's bytes, then every global's initializers in order.
func DenseInit(img *Image) []int64 {
	return denseInit(img.File, img.strAddr, 0, make([]int64, img.DataWords), func(sym string) *symbol { return img.syms[sym] })
}

// DenseModuleInit is the same reference for the live dynamic module
// name on m, loaded from o: the dense words of its data and strings,
// and the address of the first.
func DenseModuleInit(m *M, name string, o *obj.File) (base int64, mem []int64) {
	mod := m.dyn.module(name)
	return mod.dataBase, denseInit(o, mod.strAddr, mod.dataBase, make([]int64, mod.dataEnd-mod.dataBase), m.lookup)
}

// denseInit writes f's initial data into mem, which holds the words
// from base on, as the loader built it densely.
func denseInit(f *obj.File, strAddr []int64, base int64, mem []int64, lookup func(string) *symbol) []int64 {
	for i, s := range f.Strings {
		at := strAddr[i] - base
		for j := 0; j < len(s); j++ {
			mem[at+int64(j)] = int64(s[j])
		}
	}
	order := make([]string, 0, len(f.Datas))
	for name := range f.Datas {
		order = append(order, name)
	}
	slices.Sort(order)
	for _, name := range order {
		at := lookup(name).addr - base
		for _, init := range f.Datas[name].Init {
			switch init.Kind {
			case obj.InitConst:
				mem[at+int64(init.Offset)] = init.Val
			case obj.InitString:
				mem[at+int64(init.Offset)] = strAddr[init.Index]
			case obj.InitSym:
				mem[at+int64(init.Offset)] = lookup(init.Sym).addr
			}
		}
	}
	return mem
}

// Addr returns the address of the symbol name on m, or -1 when m
// defines no such symbol.
func Addr(m *M, name string) int64 {
	if a, ok := m.resolveAddr(name); ok {
		return a
	}
	return -1
}

// RefersToImage reports whether the snapshot holds no copy of memory
// but refers to its image's initial data.
func (s *Snapshot) RefersToImage() bool { return s.img != nil }
