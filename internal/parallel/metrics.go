package parallel

import "mpppb/internal/obs"

// Pool metrics: updated at task granularity (one task is one grid cell,
// milliseconds to minutes of work), so the per-access hot path inside the
// tasks never sees them.
var (
	mTasksStarted = obs.Default().Counter("mpppb_parallel_tasks_started_total",
		"tasks dispatched to the worker pool, one per grid cell")
	mTasksCompleted = obs.Default().Counter("mpppb_parallel_tasks_completed_total",
		"tasks that finished without error")
	mTasksFailed = obs.Default().Counter("mpppb_parallel_tasks_failed_total",
		"tasks that returned an error")
	mQueueDepth = obs.Default().Gauge("mpppb_parallel_queue_depth",
		"items not yet dispatched across all active MapErr calls")
	mInflight = obs.Default().Gauge("mpppb_parallel_tasks_inflight",
		"tasks currently executing")
	mTaskSeconds = obs.Default().Histogram("mpppb_parallel_task_seconds",
		"wall time per task", obs.LatencyBuckets)
)
