package machine

import (
	"bytes"
	"fmt"
)

// Console is the simulated console device: a byte sink that components'
// console drivers write to through the __console_out builtin.
type Console struct {
	buf bytes.Buffer
}

// String returns everything written to the console so far.
func (c *Console) String() string { return c.buf.String() }

// Reset clears the console buffer.
func (c *Console) Reset() { c.buf.Reset() }

// InstallConsole registers the console device builtins on m and returns
// the console. Simulated code accesses the device as:
//
//	extern int __console_out(int ch);   // write one byte
//	extern int __serial_out(int ch);    // the "serial port": same sink,
//	                                    // distinct device symbol
//
// Giving the two devices distinct symbols lets OSKit-style examples
// demonstrate printf redirection by linking a console component against
// one device or the other.
func InstallConsole(m *M) *Console {
	c := &Console{}
	m.RegisterBuiltin("__console_out", c.out("__console_out"))
	return c
}

// InstallSerial registers the serial-port device builtin and returns its
// sink.
func InstallSerial(m *M) *Console {
	c := &Console{}
	m.RegisterBuiltin("__serial_out", c.out("__serial_out"))
	return c
}

// out is the device builtin name that writes its one argument's byte to
// c; any other argument count is a trap.
func (c *Console) out(name string) Builtin {
	return func(_ *M, args []int64) (int64, error) {
		if len(args) != 1 {
			return 0, &Trap{Msg: fmt.Sprintf("%s called with %d args, want 1", name, len(args))}
		}
		c.buf.WriteByte(byte(args[0]))
		return 0, nil
	}
}

// StopWatch accumulates cycles (and i-fetch stall cycles) between
// __tick_enter and __tick_exit calls; benchmarks use it to measure,
// e.g., per-packet processing time "from the moment a packet enters the
// router graph to the moment it leaves" (Table 1).
type StopWatch struct {
	Windows     int64
	Total       int64
	TotalStalls int64
	start       int64
	startStall  int64
	running     bool
}

// InstallStopWatch registers __tick_enter/__tick_exit on m.
func InstallStopWatch(m *M) *StopWatch {
	w := &StopWatch{}
	m.RegisterBuiltin("__tick_enter", func(mm *M, _ []int64) (int64, error) {
		w.start = mm.Cycles
		w.startStall = mm.Stalls
		w.running = true
		return 0, nil
	})
	m.RegisterBuiltin("__tick_exit", func(mm *M, _ []int64) (int64, error) {
		if w.running {
			w.Total += mm.Cycles - w.start
			w.TotalStalls += mm.Stalls - w.startStall
			w.Windows++
			w.running = false
		}
		return 0, nil
	})
	return w
}

// PerWindow returns average cycles per measured window.
func (w *StopWatch) PerWindow() float64 {
	if w.Windows == 0 {
		return 0
	}
	return float64(w.Total) / float64(w.Windows)
}

// StallsPerWindow returns average i-fetch stall cycles per window.
func (w *StopWatch) StallsPerWindow() float64 {
	if w.Windows == 0 {
		return 0
	}
	return float64(w.TotalStalls) / float64(w.Windows)
}
