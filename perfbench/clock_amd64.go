package main

// cputicks reads the time-stamp counter. Reading it costs a few
// nanoseconds, against roughly 40 ns per clock read through time.Now on a
// virtualised host, which is as long as some of the calls being timed.
func cputicks() int64
