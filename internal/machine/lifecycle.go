package machine

import (
	"fmt"
	"slices"
)

// Snapshot is a restorable copy of a machine's mutable program state:
// memory, stack pointer, the dynamic modules and their symbol records,
// and the interposition redirects. It deliberately excludes the
// performance counters (Cycles, Executed, ...) — a rollback undoes what
// the program did, not the record that it ran — and the host-side
// builtins, which belong to the embedder.
type Snapshot struct {
	// mem is memory up to its last nonzero word; every word from there
	// to memLen is zero. The unused top of the stack is most of a
	// machine's memory, and a snapshot neither copies nor holds it. A
	// snapshot of memory that is still its image's initial data holds
	// no copy: img is set, and memory is img's runs and zeros to memLen.
	mem        []int64
	img        *Image
	memLen     int
	sp         int64
	stackLimit int64
	dyn        *dynState
	redirect   map[string]string
	origin     uint64 // serial of the machine that took it
}

// Snapshot captures the machine's current program state. The snapshot
// is independent of later execution and may be restored any number of
// times; taking one costs a copy of memory up to its last nonzero word,
// or nothing while memory is still the image's initial data, which the
// snapshot then refers to.
func (m *M) Snapshot() *Snapshot {
	s := &Snapshot{
		memLen:     len(m.Mem),
		sp:         m.sp,
		stackLimit: m.stackLimit,
		origin:     m.serial,
	}
	if i, _ := m.Img.initDiff(m.Mem); i < 0 {
		s.img = m.Img
	} else {
		s.mem = slices.Clone(m.Mem[:liveLen(m.Mem)])
	}
	if m.dyn != nil {
		s.dyn = m.dyn.clone()
	}
	if m.redirect != nil {
		s.redirect = map[string]string{}
		for k, v := range m.redirect {
			s.redirect[k] = v
		}
	}
	return s
}

// Restore rewinds the machine's program state to the snapshot: memory
// contents (including any since-loaded dynamic modules' data), stack
// pointer, the dynamic modules and their records, and the interposition
// redirects. Modules loaded after the snapshot vanish; modules unloaded
// after it come back, their functions under their old indices
// (CallInfo.Index). A snapshot taken on another machine gives its
// functions fresh indices on this one. Statistics and registered
// builtins are left alone. Memory is rewritten in place when the
// machine's buffer can hold the snapshot's.
func (m *M) Restore(s *Snapshot) {
	if cap(m.Mem) < s.memLen {
		m.Mem = make([]int64, s.memLen)
	} else {
		m.Mem = m.Mem[:s.memLen]
	}
	if s.img != nil {
		data := int64(s.img.DataWords)
		s.img.writeInit(m.Mem, 0, data)
		clear(m.Mem[data:])
	} else {
		copy(m.Mem, s.mem)
		clear(m.Mem[len(s.mem):])
	}
	m.sp = s.sp
	m.stackLimit = s.stackLimit
	if s.dyn != nil {
		m.dyn = s.dyn.clone()
		if s.origin != m.serial {
			m.dyn.renumber(&m.nextIndex)
		}
	} else {
		m.dyn = nil
	}
	if s.redirect != nil {
		m.redirect = map[string]string{}
		for k, v := range s.redirect {
			m.redirect[k] = v
		}
	} else {
		m.redirect = nil
	}
	// Redirects and the dynamic-module world just changed wholesale:
	// drop the compiled dispatch caches. Static compiled code lives on
	// the Image and is untouched; the restored records carry no compiled
	// form, so dynamic functions recompile lazily against them.
	m.dispVersion++
}

// StateEqual reports whether the machine's current program state matches
// the snapshot, returning nil on a match and an error naming the first
// divergence otherwise. It compares exactly what Restore would rewrite:
// memory, stack pointer and limit, interposition redirects, and the set
// of live dynamic modules. The reconfiguration layer uses it to certify
// that a rollback left zero residue.
func (m *M) StateEqual(s *Snapshot) error {
	if len(m.Mem) != s.memLen {
		return fmt.Errorf("memory size %d, snapshot has %d", len(m.Mem), s.memLen)
	}
	if s.img != nil {
		if i, want := s.img.initDiff(m.Mem); i >= 0 {
			return fmt.Errorf("memory word %d is %d, snapshot has %d", i, m.Mem[i], want)
		}
	} else {
		for i, v := range m.Mem {
			want := int64(0)
			if i < len(s.mem) {
				want = s.mem[i]
			}
			if v != want {
				return fmt.Errorf("memory word %d is %d, snapshot has %d", i, v, want)
			}
		}
	}
	if m.sp != s.sp {
		return fmt.Errorf("stack pointer %d, snapshot has %d", m.sp, s.sp)
	}
	if m.stackLimit != s.stackLimit {
		return fmt.Errorf("stack limit %d, snapshot has %d", m.stackLimit, s.stackLimit)
	}
	if len(m.redirect) != len(s.redirect) {
		return fmt.Errorf("%d interposition redirects, snapshot has %d", len(m.redirect), len(s.redirect))
	}
	for k, v := range m.redirect {
		if sv, ok := s.redirect[k]; !ok || sv != v {
			return fmt.Errorf("redirect %q -> %q, snapshot has %q -> %q", k, v, k, sv)
		}
	}
	var live, want []string
	if m.dyn != nil {
		for _, mod := range m.dyn.modules {
			live = append(live, mod.name)
		}
	}
	if s.dyn != nil {
		for _, mod := range s.dyn.modules {
			want = append(want, mod.name)
		}
	}
	if len(live) != len(want) {
		return fmt.Errorf("live dynamic modules %v, snapshot has %v", live, want)
	}
	for i := range live {
		if live[i] != want[i] {
			return fmt.Errorf("dynamic module %d is %q, snapshot has %q", i, live[i], want[i])
		}
	}
	return nil
}

// liveLen is the length of mem without its trailing zero words.
func liveLen(mem []int64) int {
	n := len(mem)
	// Eight words a step: the zero tail is usually most of the stack,
	// and this reads it three to four times faster than word by word.
	for n >= 8 && mem[n-1]|mem[n-2]|mem[n-3]|mem[n-4]|mem[n-5]|mem[n-6]|mem[n-7]|mem[n-8] == 0 {
		n -= 8
	}
	for n > 0 && mem[n-1] == 0 {
		n--
	}
	return n
}
