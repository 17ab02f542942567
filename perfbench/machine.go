package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"ratel/internal/tensor/pool"
	"ratel/internal/tensor/simd"
)

// fingerprint names where a result came from: CPU model, online CPUs,
// GOMAXPROCS, the kernel pool's width, the SIMD tier and the Go version.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d pool=%d simd=%s go=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), pool.Default().Limit(),
		simd.Level(), runtime.Version())
}

// cpuModel is /proc/cpuinfo's first "model name", or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSS is the process's peak resident set (VmHWM) in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks reads /proc/stat's aggregate CPU line: the ticks stolen by the
// hypervisor for other guests, and all ticks from user through steal (the
// guest fields after them are already counted in user time). ok is false
// where the file is unreadable.
func cpuTicks() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
