// Package faultinject deterministically injects failures into a Knit
// machine and its build artifacts, so lifecycle robustness — init
// rollback, dynamic-load rollback, unload, cache self-healing — can be
// exercised by table tests instead of waiting for real components to
// crash. Every injection is explicit and repeatable: fail the nth
// top-level run, fail a named initializer, fail a device builtin after
// a call budget, corrupt or truncate a compile-cache entry on disk.
//
// The machine side rides on machine.M's PreRun hook and builtin
// registry; nothing here changes simulated-code semantics when no
// faults are armed.
package faultinject

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"knit/internal/machine"
)

// Injector arms deterministic failures on one machine. All methods are
// safe for concurrent use.
type Injector struct {
	m  *machine.M
	mu sync.Mutex

	runs       int
	failAtRun  map[int]error
	failEntry  map[string]error
	entryMatch []matchRule
	trapCall   map[string]*callRule
	saved      map[string]machine.Builtin // builtins replaced by failing wrappers
}

// matchRule fails top-level runs whose entry name contains a substring.
type matchRule struct {
	substr string
	err    error
}

// callRule traps every nth entry to one simulated function.
type callRule struct {
	every int
	calls int
}

// Attach hooks an Injector into m's PreRun and PreCall slots and
// returns it. With no faults armed the hooks only count events.
func Attach(m *machine.M) *Injector {
	in := &Injector{
		m:         m,
		failAtRun: map[int]error{},
		failEntry: map[string]error{},
		trapCall:  map[string]*callRule{},
		saved:     map[string]machine.Builtin{},
	}
	m.PreRun = in.preRun
	m.PreCall = in.preCall
	return in
}

func (in *Injector) preRun(entry string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.runs
	in.runs++
	if err, ok := in.failAtRun[n]; ok {
		return fmt.Errorf("faultinject: run #%d (%s): %w", n, entry, err)
	}
	if err, ok := in.failEntry[entry]; ok {
		return fmt.Errorf("faultinject: entry %s: %w", entry, err)
	}
	for _, r := range in.entryMatch {
		if strings.Contains(entry, r.substr) {
			return fmt.Errorf("faultinject: entry %s: %w", entry, r.err)
		}
	}
	return nil
}

func (in *Injector) preCall(fn string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	r, ok := in.trapCall[fn]
	if !ok {
		return nil
	}
	r.calls++
	if r.every <= 0 || r.calls%r.every != 0 {
		return nil
	}
	// A fresh *Trap per firing: the machine fills Unit from its symbol
	// owner table, so the fault is attributed like a real crash.
	return &machine.Trap{
		Kind: machine.TrapInjected,
		Msg:  fmt.Sprintf("faultinject: call #%d to %s", r.calls, fn),
		Func: fn,
	}
}

// FailNthRun arms a failure for the nth (0-based, counted from Attach
// or the last Clear) top-level machine.Run — e.g. the nth initializer
// of a RunInit sequence on a fresh machine.
func (in *Injector) FailNthRun(n int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failAtRun[n] = err
}

// FailEntry arms a failure for every top-level run of the named global
// symbol (use a schedule step's Global name to kill one specific
// initializer or finalizer regardless of position).
func (in *Injector) FailEntry(global string, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failEntry[global] = err
}

// FailEntryMatching arms a failure for every top-level run whose entry
// name contains substr. Dynamic instances get fresh program-unique
// renamed symbols on every load, so a test that wants to kill, say, a
// fallback unit's initializer on whatever instance comes next cannot
// know the exact global name in advance — but it does know the stable
// source-level fragment inside it.
func (in *Injector) FailEntryMatching(substr string, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.entryMatch = append(in.entryMatch, matchRule{substr: substr, err: err})
}

// TrapCallEvery arms an injected trap on every nth entry (counting from
// 1) to the named simulated function — top-level or nested, so an
// element deep inside a router pipeline can be made to crash on a
// schedule. The trap carries Kind TrapInjected and is attributed to the
// function's owning unit instance exactly like a real fault.
func (in *Injector) TrapCallEvery(global string, every int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.trapCall[global] = &callRule{every: every}
}

// FailBuiltinAfter replaces the named registered builtin with a wrapper
// that lets the first calls calls through and then fails every call
// with err. The original builtin is restored by Clear.
func (in *Injector) FailBuiltinAfter(name string, calls int, err error) error {
	orig, ok := in.m.Builtins[name]
	if !ok {
		return fmt.Errorf("faultinject: no builtin %q registered", name)
	}
	in.mu.Lock()
	if _, already := in.saved[name]; !already {
		in.saved[name] = orig
	}
	in.mu.Unlock()
	remaining := calls
	var mu sync.Mutex
	in.m.RegisterBuiltin(name, func(m *machine.M, args []int64) (int64, error) {
		mu.Lock()
		ok := remaining > 0
		remaining--
		mu.Unlock()
		if !ok {
			return 0, fmt.Errorf("faultinject: builtin %s: %w", name, err)
		}
		return orig(m, args)
	})
	return nil
}

// Clear disarms every fault, restores wrapped builtins, and resets the
// run counter, leaving the injector attached for the next scenario.
func (in *Injector) Clear() {
	in.mu.Lock()
	saved := in.saved
	in.runs = 0
	in.failAtRun = map[int]error{}
	in.failEntry = map[string]error{}
	in.entryMatch = nil
	in.trapCall = map[string]*callRule{}
	in.saved = map[string]machine.Builtin{}
	in.mu.Unlock()
	for name, b := range saved {
		in.m.RegisterBuiltin(name, b)
	}
}

// Detach clears all faults and removes the PreRun and PreCall hooks.
func (in *Injector) Detach() {
	in.Clear()
	in.m.PreRun = nil
	in.m.PreCall = nil
}

// CacheEntries lists a disk compile cache's entry files in sorted
// order, so tests can pick deterministic victims.
func CacheEntries(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.knitobj"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// CorruptEntry flips one byte of the file at the given offset (taken
// modulo the file size), simulating on-disk rot or a torn write.
func CorruptEntry(path string, offset int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("faultinject: %s is empty", path)
	}
	i := offset % int64(len(data))
	if i < 0 {
		i += int64(len(data))
	}
	data[i] ^= 0xff
	return os.WriteFile(path, data, 0o666)
}

// TruncateEntry cuts the file down to keep bytes (a crashed writer's
// torn file).
func TruncateEntry(path string, keep int64) error {
	return os.Truncate(path, keep)
}
