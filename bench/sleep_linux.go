//go:build linux

package main

import (
	"syscall"
	"time"
)

// setTimerSlack sets how far past a sleep's end the kernel may wake the
// calling thread, in nanoseconds; 0 restores the default (50 us). The caller
// has locked itself to its thread. Failure leaves the slack as it was.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}

// sleepUntil blocks the calling thread until t. The open-loop dispatcher
// uses it on a locked thread instead of time.Sleep: an idle Go process
// fires timers from an epoll wait with millisecond granularity, which would
// make every request about half a millisecond late and bill the generator's
// delay to the system; a kernel sleep wakes within its timer slack.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}
