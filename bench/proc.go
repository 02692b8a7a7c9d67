package main

import (
	"io/fs"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// procSnap is the process-level cost counters at one instant; a phase
// reports the difference of two.
type procSnap struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	mallocs    uint64
	gcPause    time.Duration
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{
		cpu:        cpuTime(),
		allocBytes: m.TotalAlloc,
		mallocs:    m.Mallocs,
		gcPause:    time.Duration(m.PauseTotalNs),
	}
}

func (a procSnap) since(b procSnap) procSnap {
	return procSnap{
		cpu:        a.cpu - b.cpu,
		allocBytes: a.allocBytes - b.allocBytes,
		mallocs:    a.mallocs - b.mallocs,
		gcPause:    a.gcPause - b.gcPause,
	}
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
