//go:build !linux

package main

import "time"

func setTimerSlack(uintptr) {}

// sleepUntil blocks until t; see sleep_linux.go for why Linux does better.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
