//go:build !linux

package main

import (
	"os"
	"syscall"
)

// procAttr has no parent-death signal off Linux; sealbench still stops
// every child on each of its own exit paths.
func procAttr() *syscall.SysProcAttr { return nil }

// peakRSSMB is unmeasured off Linux, where Maxrss units differ.
func peakRSSMB(*os.ProcessState) float64 { return 0 }
