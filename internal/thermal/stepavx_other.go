//go:build !amd64

package thermal

// haveAVX is false off amd64: FixedStepper.Step runs the Go loop.
const haveAVX = false

func stepAVX(m, c, t, p, next []float64) { panic("thermal: AVX kernel on a non-amd64 host") }
