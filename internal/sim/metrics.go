package sim

import (
	"time"

	"mpppb/internal/obs"
)

// Observability instruments the drivers at phase granularity only — one
// histogram observation per warmup or measurement window, never per
// access — so the per-access hot path stays untouched (and zero-alloc,
// see core's steady-state guard).
var (
	mWarmupPhases = obs.Default().Counter("mpppb_sim_warmup_phases_total",
		"warmup phases completed by the simulation drivers")
	mMeasurePhases = obs.Default().Counter("mpppb_sim_measure_phases_total",
		"measurement phases completed by the simulation drivers")
	mPhaseSeconds = obs.Default().Histogram("mpppb_sim_phase_seconds",
		"wall time per simulation phase (warmup or measurement)", obs.LatencyBuckets)
	mMeasuredAccesses = obs.Default().Counter("mpppb_sim_llc_accesses_total",
		"LLC accesses simulated inside measurement windows")
	mAccessRate = obs.Default().FloatGauge("mpppb_sim_accesses_per_sec",
		"simulated LLC accesses per wall-clock second in the most recently completed measurement phase")
)

// startPhase times one driver phase; the returned function records the
// transition and its wall time. Used directly for the warmup phase, which
// has no Result to fill; every driver's measurement window goes through
// startMeasure, which also feeds these metrics.
func startPhase(kind *obs.Counter) func() {
	t0 := time.Now()
	return func() {
		kind.Inc()
		mPhaseSeconds.Observe(time.Since(t0).Seconds())
	}
}
