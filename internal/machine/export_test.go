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
	f := img.File
	mem := make([]int64, img.DataWords)
	for i, s := range f.Strings {
		base := img.strAddr[i]
		for j := 0; j < len(s); j++ {
			mem[base+int64(j)] = int64(s[j])
		}
	}
	order := make([]string, 0, len(f.Datas))
	for name := range f.Datas {
		order = append(order, name)
	}
	slices.Sort(order)
	for _, name := range order {
		base := img.GlobalAddr[name]
		for _, init := range f.Datas[name].Init {
			switch init.Kind {
			case obj.InitConst:
				mem[base+int64(init.Offset)] = init.Val
			case obj.InitString:
				mem[base+int64(init.Offset)] = img.strAddr[init.Index]
			case obj.InitSym:
				mem[base+int64(init.Offset)] = img.syms[init.Sym].addr
			}
		}
	}
	return mem
}

// RefersToImage reports whether the snapshot holds no copy of memory
// but refers to its image's initial data.
func (s *Snapshot) RefersToImage() bool { return s.img != nil }
