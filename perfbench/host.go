package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS restarts the kernel's peak-RSS tracking (VmHWM) at the
// current resident set, so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostSample is one reading of the machine-wide CPU counters.
type hostSample struct {
	at          time.Time
	busy, steal float64 // seconds, all CPUs
	total       float64
	self        time.Duration
}

// sampleHost reads /proc/stat's aggregate cpu line. Missing or unreadable
// counters yield a zero sample; the diagnostics are advisory.
func sampleHost() hostSample {
	h := hostSample{at: time.Now(), self: processCPU()}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h
	}
	v := make([]float64, len(f)-1)
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
		v[i] /= 100 // USER_HZ
	}
	// user nice system idle iowait irq softirq steal ...
	h.busy = v[0] + v[1] + v[2] + v[5] + v[6]
	h.steal = v[7]
	for _, x := range v[:8] {
		h.total += x
	}
	return h
}

// hostNoise summarizes the machine between two samples: the share of CPU
// time the hypervisor stole, CPU seconds burnt by other processes, and the
// 1-minute load average. These explain noisy runs; they are not metrics.
func hostNoise(a, b hostSample) string {
	total := b.total - a.total
	stealPct := 0.0
	if total > 0 {
		stealPct = 100 * (b.steal - a.steal) / total
	}
	other := (b.busy - a.busy) - (b.self - a.self).Seconds()
	load := "?"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Fields(string(data))[0]
	}
	return fmt.Sprintf("wall %.2fs steal %.2f%% other-process cpu %.2fs load1 %s",
		b.at.Sub(a.at).Seconds(), stealPct, max(other, 0), load)
}
