package build

// TrackedMachines counts the machines whose per-machine state the
// Result still holds.
func (r *Result) TrackedMachines() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.mach)
}
