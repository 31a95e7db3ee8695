// Package prof backs the batch tools' -cpuprofile and -memprofile flags
// (registered by internal/runspec). docs/PERFORMANCE.md shows how to read
// the resulting profiles.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuProfile when it is non-empty. The
// returned stop function ends the CPU profile and writes a heap profile
// to memProfile when that is non-empty.
func Start(cpuProfile, memProfile string) func() {
	var cpuF *os.File
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fail("cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile", err)
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if memProfile != "" {
			f, err := os.Create(memProfile)
			if err != nil {
				fail("memprofile", err)
			}
			runtime.GC() // materialize the steady-state live set
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fail("memprofile", err)
			}
			f.Close()
		}
	}
}

func fail(which string, err error) {
	fmt.Fprintf(os.Stderr, "-%s: %v\n", which, err)
	os.Exit(1)
}
