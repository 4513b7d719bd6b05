package thermal

// haveAVX reports whether the CPU and the operating system support AVX; it
// is checked once, at package initialization.
var haveAVX = cpuHasAVX()

// cpuHasAVX checks CPUID for AVX and OSXSAVE, and XGETBV for the operating
// system saving the YMM registers.
func cpuHasAVX() bool

// stepAVX writes next = [A|B]·[t;p] + c eight rows at a time. m is the packed
// matrix of a fixedUpdate, len(t) == len(p) is the node count, and
// len(next) == len(c) is the node count padded to a multiple of eight.
//
//go:noescape
func stepAVX(m, c, t, p, next []float64)
