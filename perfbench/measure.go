package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cost is what one timed phase consumed.
type cost struct {
	wall    time.Duration
	cpu     time.Duration // user + system time of the whole process
	alloc   uint64        // bytes allocated (runtime TotalAlloc delta)
	peakRSS uint64        // bytes: the kernel's peak-RSS mark, reset at phase start
}

// measure runs fn as one timed phase. Before the clock starts it
// collects garbage, hands freed memory back to the kernel and resets
// the peak-RSS mark, so the phase's peak excludes whatever set-up or an
// earlier phase left resident.
func measure(fn func() error) (cost, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return cost{}, fmt.Errorf("reset peak RSS: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return cost{}, err
	}
	peak, err := peakRSS()
	if err != nil {
		return cost{}, err
	}
	return cost{wall: wall, cpu: cpu, alloc: after.TotalAlloc - before.TotalAlloc, peakRSS: peak}, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's resident-set high-water mark (VmHWM).
func peakRSS() (uint64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb uint64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
