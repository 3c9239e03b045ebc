//go:build unix

package obs

import "syscall"

// cpuSeconds returns the user CPU time the process has used, over all
// its threads, from getrusage(RUSAGE_SELF); 0 if the call fails.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()) / 1e9
}
