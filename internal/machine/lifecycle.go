package machine

import "fmt"

// Snapshot is a restorable copy of a machine's mutable program state:
// memory, stack pointer, the dynamic-module symbol tables, and the
// interposition redirects. It deliberately excludes the performance
// counters (Cycles, Executed, ...) — a rollback undoes what the program
// did, not the record that it ran — and the host-side builtins, which
// belong to the embedder.
type Snapshot struct {
	mem        []int64
	sp         int64
	stackLimit int64
	dyn        *dynState
	redirect   map[string]string
	origin     uint64 // serial of the machine that took it
}

// Snapshot captures the machine's current program state. The snapshot
// is independent of later execution and may be restored any number of
// times; taking one costs a copy of the live memory image.
func (m *M) Snapshot() *Snapshot {
	s := &Snapshot{
		mem:        append([]int64(nil), m.Mem...),
		sp:         m.sp,
		stackLimit: m.stackLimit,
		origin:     m.serial,
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
// pointer, the dynamic symbol tables, and the interposition redirects.
// Modules loaded after the snapshot vanish; modules unloaded after it
// come back, their functions under their old indices (CallInfo.Index).
// A snapshot taken on another machine gives its functions fresh indices
// on this one. Statistics and registered builtins are left alone.
func (m *M) Restore(s *Snapshot) {
	m.Mem = append([]int64(nil), s.mem...)
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
	// drop the compiled backend's per-machine caches. Static compiled
	// code lives on the Image and is untouched; dynamic functions
	// recompile lazily against the restored tables.
	m.dynCompiled = nil
	m.dispVersion++
}

// StateEqual reports whether the machine's current program state matches
// the snapshot, returning nil on a match and an error naming the first
// divergence otherwise. It compares exactly what Restore would rewrite:
// memory, stack pointer and limit, interposition redirects, and the set
// of live dynamic modules. The reconfiguration layer uses it to certify
// that a rollback left zero residue.
func (m *M) StateEqual(s *Snapshot) error {
	if len(m.Mem) != len(s.mem) {
		return fmt.Errorf("memory size %d, snapshot has %d", len(m.Mem), len(s.mem))
	}
	for i := range m.Mem {
		if m.Mem[i] != s.mem[i] {
			return fmt.Errorf("memory word %d is %d, snapshot has %d", i, m.Mem[i], s.mem[i])
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
