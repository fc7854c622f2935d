package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; xs is sorted in place.
// Zero for an empty sample.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo]) + frac*float64(xs[lo+1]-xs[lo])
}

// medianDur is the median of a duration sample, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]int64, len(ds))
	for i, d := range ds {
		xs[i] = int64(d)
	}
	return percentile(xs, 50) / float64(unit)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealMeter measures the share of the machine's processor time that
// the hypervisor gave to other guests (steal time) over a timed region.
type stealMeter struct{ steal, total float64 }

// hostCPU reads the kernel's machine-wide processor time counters: steal
// and the sum over all states, in clock ticks. Both are 0 where the
// kernel does not report them.
func hostCPU() stealMeter {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	var m stealMeter
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealMeter{}
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return stealMeter{}
		}
		m.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			m.steal = v
		}
	}
	return m
}

// since is the share of processor time stolen since m was read: 0 when
// the kernel reports no steal.
func (m stealMeter) since() float64 {
	now := hostCPU()
	if m.total == 0 || now.total == 0 {
		return 0
	}
	return ratio(now.steal-m.steal, now.total-m.total)
}

// spin busy-waits for d: simulated extra work on the calling goroutine,
// unlike a sleep, which would free the processor.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowCount is how many measurement windows a pass of the given
// length is cut into: one per second, at least one.
func windowCount(seconds float64) int { return max(1, int(math.Round(seconds))) }

// windowStats is a pass's figures as medians over its windows.
type windowStats struct {
	ops, mean, p50, p90, p99, highP99 float64
	samples, highSamples              int
	// perWindow holds each window's completions per second and latency
	// mean and p90 in ns.
	perWindow [][3]int64
}

// summarize reduces per-window completions to medians over windows:
// completions per second, latency mean, p50, p90 and p99, and the High
// class's latency p99.
func summarize(wins []window, winLen int64) windowStats {
	var ws windowStats
	var ops, means, p50, p90, p99, high []int64
	for _, w := range wins {
		ops = append(ops, int64(w.done)*int64(time.Second)/winLen)
		if len(w.lat) > 0 {
			means = append(means, mean(w.lat))
			p50 = append(p50, int64(percentile(w.lat, 50)))
			p90 = append(p90, int64(percentile(w.lat, 90)))
			p99 = append(p99, int64(percentile(w.lat, 99)))
			ws.perWindow = append(ws.perWindow, [3]int64{ops[len(ops)-1], means[len(means)-1], p90[len(p90)-1]})
		}
		if len(w.latHigh) > 0 {
			high = append(high, int64(percentile(w.latHigh, 99)))
		}
		ws.samples += len(w.lat)
		ws.highSamples += len(w.latHigh)
	}
	ws.ops, ws.mean = percentile(ops, 50), percentile(means, 50)
	ws.p50, ws.p90, ws.p99 = percentile(p50, 50), percentile(p90, 50), percentile(p99, 50)
	ws.highP99 = percentile(high, 50)
	return ws
}

func mean(xs []int64) int64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return sum / int64(max(len(xs), 1))
}

// stealFree sets a workload's wall-time metrics as if the hypervisor had
// taken no processor time from the run: ops_per_s is divided, and
// latency_p90_us multiplied, by the share of processor time the run was
// given. On a shared host, steal made serve-saturated's throughput drift
// by a third over minutes; a timed reference task tracked it worse than
// the kernel's own count. The uncorrected figures go to raw.
func stealFree(out *outcome, opsPerSec, p90us, steal float64) {
	out.set("ops_per_s", "1/s", opsPerSec/(1-steal))
	out.set("latency_p90_us", "us", p90us*(1-steal))
	out.raw["ops_per_s"] = opsPerSec
	out.raw["latency_p90_us"] = p90us
	out.detail["steal_frac"] = steal
}
