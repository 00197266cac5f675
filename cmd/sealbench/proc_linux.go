package main

import (
	"os"
	"syscall"
)

// procAttr makes the kernel kill a seal child if sealbench dies first, so
// no daemon outlives the benchmark.
func procAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSSMB is a finished child's peak resident set size in MB (Linux
// reports Maxrss in KiB).
func peakRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
