package main

import "time"

// Host speed on a shared machine drifts by 10-50% over minutes, more than
// the changes the benchmark must resolve. So every cell and serve pass is
// preceded by a calibration kernel that shares no code with the simulator:
// dependent pseudo-random read-modify-writes over a 128 KiB and a 2 MiB
// table, the sizes of the simulator's core-cache and LLC/predictor state.
// A cell's host factor is the median of three kernel times over
// refCalibSeconds, and the time-based metrics are reported at reference
// speed: each time is divided by the factor, each rate multiplied by it.

// refCalibSeconds is about the kernel's median time on the machine the
// benchmark was defined on (a 2-vCPU Intel Xeon VM at 2.1 GHz) when idle.
const refCalibSeconds = 2.4e-3

var (
	calibSmall = make([]uint64, 1<<14) // 128 KiB
	calibLarge = make([]uint64, 1<<18) // 2 MiB
	calibSink  uint64
)

// calibrate runs the kernel once and returns its time over the reference.
func calibrate() float64 {
	t := time.Now()
	calibSink += rmw(calibSmall, 500_000) + rmw(calibLarge, 250_000)
	return time.Since(t).Seconds() / refCalibSeconds
}

// rmw makes n dependent pseudo-random read-modify-writes over table.
func rmw(table []uint64, n int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(table) - 1)
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ table[x&mask]) & mask
		table[j] += x
	}
	return x
}

// hostFactor is the median of three calibrations: one kernel run is short
// enough for a single scheduling hiccup to skew it.
func hostFactor() float64 {
	return median([]float64{calibrate(), calibrate(), calibrate()})
}
