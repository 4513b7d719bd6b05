//go:build !amd64

package main

import "time"

var tickBase = time.Now()

// cputicks falls back to the monotonic clock, in nanoseconds.
func cputicks() int64 { return int64(time.Since(tickBase)) }
