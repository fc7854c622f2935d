package machine

import (
	"slices"
	"strings"
	"testing"
)

// TestSnapshotTrimsZeroTail: a snapshot keeps memory only up to its
// last nonzero word, and restoring it zero-fills the rest. An all-zero
// tail (the unused stack) and a nonzero last word both round-trip, and
// a restore onto a machine whose buffer is large enough allocates
// nothing.
func TestSnapshotTrimsZeroTail(t *testing.T) {
	m := baseMachine(t)
	last := len(m.Mem) - 1

	zeroTail := m.Snapshot()
	zeroRef := slices.Clone(m.Mem)
	if len(zeroTail.mem) >= len(m.Mem) || zeroTail.memLen != len(m.Mem) {
		t.Fatalf("snapshot of an unused stack holds %d of %d words", len(zeroTail.mem), zeroTail.memLen)
	}

	m.Mem[last] = 42
	m.Mem[last-9] = -3
	full := m.Snapshot()
	fullRef := slices.Clone(m.Mem)
	if len(full.mem) != len(m.Mem) {
		t.Fatalf("snapshot with a nonzero last word holds %d of %d words", len(full.mem), len(m.Mem))
	}

	for i := range m.Mem {
		m.Mem[i] = int64(i) + 1
	}
	m.Restore(zeroTail)
	if !slices.Equal(m.Mem, zeroRef) {
		t.Error("restoring the zero-tail snapshot did not reproduce memory")
	}
	if err := m.StateEqual(zeroTail); err != nil {
		t.Error(err)
	}
	m.Restore(full)
	if !slices.Equal(m.Mem, fullRef) || m.Mem[last] != 42 {
		t.Error("restoring the nonzero-tail snapshot did not reproduce memory")
	}
	if err := m.StateEqual(full); err != nil {
		t.Error(err)
	}
	if err := m.StateEqual(zeroTail); err == nil {
		t.Error("StateEqual matched a snapshot whose last word differs")
	}

	if n := testing.AllocsPerRun(10, func() { m.Restore(zeroTail) }); n != 0 {
		t.Errorf("Restore into a large-enough buffer allocated %v times", n)
	}
	if v, err := m.Run("base_id", 9); err != nil || v != 9 {
		t.Errorf("base_id(9) = %d, %v after restores", v, err)
	}
}

// TestSnapshotStateEqualSeesTrimmedTail: a word written past the
// snapshot's last nonzero word is a divergence, though the snapshot
// holds no copy of that word.
func TestSnapshotStateEqualSeesTrimmedTail(t *testing.T) {
	m := baseMachine(t)
	s := m.Snapshot()
	for _, i := range []int{len(s.mem), (len(s.mem) + len(m.Mem)) / 2, len(m.Mem) - 1} {
		m.Mem[i] = 7
		err := m.StateEqual(s)
		if err == nil || !strings.Contains(err.Error(), "memory word") {
			t.Errorf("word %d written in the trimmed tail: StateEqual = %v", i, err)
		}
		m.Mem[i] = 0
		if err := m.StateEqual(s); err != nil {
			t.Errorf("after clearing word %d: %v", i, err)
		}
	}
}

// TestSnapshotRestoreAcrossGrowAndShrink: a snapshot restores onto a
// machine whose memory has since grown (a module loaded) or shrunk (a
// module unloaded), and onto a fresh machine of the same image, on both
// engines.
func TestSnapshotRestoreAcrossGrowAndShrink(t *testing.T) {
	for _, backend := range []Backend{BackendInterp, BackendCompiled} {
		t.Run(backend.String(), func(t *testing.T) {
			m := baseMachine(t)
			m.SetBackend(backend)
			bare := m.Snapshot()
			if err := m.LoadDynamic(constMod("A", "a_fn", "a_g", 5)); err != nil {
				t.Fatal(err)
			}
			withA := m.Snapshot()
			withARef := slices.Clone(m.Mem)

			// Grown: a second module is loaded past the bare snapshot's end.
			if err := m.LoadDynamic(constMod("B", "b_fn", "b_g", 6)); err != nil {
				t.Fatal(err)
			}
			m.Restore(bare)
			if err := m.StateEqual(bare); err != nil {
				t.Errorf("restore onto a grown machine: %v", err)
			}
			if len(m.DynModules()) != 0 {
				t.Errorf("modules %v survive a restore to the bare snapshot", m.DynModules())
			}

			// Shrunk: the restore must bring back A's data word, which the
			// machine's buffer still holds past its end, from the snapshot.
			m.Restore(withA)
			if err := m.UnloadDynamic("A"); err != nil {
				t.Fatal(err)
			}
			m.Restore(withA)
			if !slices.Equal(m.Mem, withARef) {
				t.Error("restore onto a shrunk machine did not reproduce memory")
			}
			if err := m.StateEqual(withA); err != nil {
				t.Error(err)
			}
			if err := m.CheckDynInvariants(); err != nil {
				t.Error(err)
			}
			if v, err := m.Run("a_fn"); err != nil || v != 5 {
				t.Errorf("a_fn = %d, %v after restore; want 5", v, err)
			}

			// Shrunk over stale words: with a_g zero, A's data is in the
			// snapshot's trimmed tail. The unload leaves a_g's old value in
			// the buffer past memory's end, and the restore must clear it.
			aG := m.StackLimit()
			m.Mem[aG] = 0
			zeroA := m.Snapshot()
			m.Mem[aG] = 9
			if err := m.UnloadDynamic("A"); err != nil {
				t.Fatal(err)
			}
			m.Restore(zeroA)
			if m.Mem[aG] != 0 {
				t.Errorf("a_g = %d after restore, want the snapshot's 0", m.Mem[aG])
			}
			if err := m.StateEqual(zeroA); err != nil {
				t.Error(err)
			}
			m.Restore(withA)

			fresh := New(m.Img)
			fresh.SetBackend(backend)
			fresh.Restore(withA)
			if !slices.Equal(fresh.Mem, withARef) {
				t.Error("restore onto a fresh machine did not reproduce memory")
			}
			if v, err := fresh.Run("a_fn"); err != nil || v != 5 {
				t.Errorf("fresh a_fn = %d, %v; want 5", v, err)
			}
		})
	}
}
