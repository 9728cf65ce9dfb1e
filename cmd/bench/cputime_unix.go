//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuNow reads the process CPU clock; time the host steals is not on it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
