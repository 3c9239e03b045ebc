//go:build !unix

package obs

// cpuSeconds returns 0: the platform has no getrusage.
func cpuSeconds() float64 { return 0 }
