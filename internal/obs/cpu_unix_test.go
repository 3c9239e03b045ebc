//go:build unix

package obs

import (
	"runtime/debug"
	"testing"
	"time"
)

var spinSink uint64

// TestReportCPUWithoutGC: a report's cpu_ms counts the CPU a session
// spends between GC cycles. With the collector off, so that no cycle
// runs, 50 ms of a busy loop that allocates nothing must still show.
func TestReportCPUWithoutGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := NewReportCollector("lattice", nil)
	start, x := time.Now(), uint64(1)
	for time.Since(start) < 50*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
	if rep := c.Finish(0); rep.CPUMS <= 0 {
		t.Fatalf("cpu_ms %v after a %v busy loop, want > 0", rep.CPUMS, time.Since(start))
	}
}
