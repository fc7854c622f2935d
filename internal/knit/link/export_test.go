package link

import (
	"sync"
	"sync/atomic"

	"knit/internal/asm"
	"knit/internal/cmini"
	"knit/internal/knit/lang"
)

// Tree is one parsed file a FrontEnd holds: its language ("unit", "c"
// or "asm"), the name and text it was parsed from, and its printed
// form.
type Tree struct{ Lang, Name, Text, Printed string }

// Trees lists every tree fe holds, each printed by its language's
// printer.
func (fe *FrontEnd) Trees() []Tree {
	var out []Tree
	fe.units.mu.Lock()
	for k, f := range fe.units.m {
		out = append(out, Tree{"unit", k.name, k.text, lang.Print(f)})
	}
	fe.units.mu.Unlock()
	fe.c.mu.Lock()
	for k, src := range fe.c.m {
		out = append(out, Tree{"c", k.name, k.text, cmini.Print(src.tree)})
	}
	fe.c.mu.Unlock()
	fe.asm.mu.Lock()
	for k, o := range fe.asm.m {
		out = append(out, Tree{"asm", k.name, k.text, asm.Format(o)})
	}
	fe.asm.mu.Unlock()
	return out
}

// Parses reports how many parses fe has run, failed ones included.
func (fe *FrontEnd) Parses() int {
	return fe.units.parseCount() + fe.c.parseCount() + fe.asm.parseCount()
}

func (m *memo[T]) parseCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.parses
}

// MemoGet runs get on a fresh memo from each of n goroutines at once,
// with parse counting its calls; parse blocks until all n goroutines
// have called get. It returns each goroutine's result and error, and
// how many times parse ran.
func MemoGet(n int, parse func(name, text string) (string, error)) ([]string, []error, int) {
	var m memo[string]
	var entered sync.WaitGroup
	entered.Add(n)
	var calls atomic.Int64
	counted := func(name, text string) (string, error) {
		calls.Add(1)
		entered.Wait()
		return parse(name, text)
	}
	vals, errs := make([]string, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Done()
			vals[i], errs[i] = m.get("f", "text", counted)
		}(i)
	}
	wg.Wait()
	return vals, errs, int(calls.Load())
}
