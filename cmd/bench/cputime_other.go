//go:build !unix

package main

import "time"

// cpuNow falls back to the wall clock.
func cpuNow() time.Duration { return time.Duration(time.Now().UnixNano()) }
