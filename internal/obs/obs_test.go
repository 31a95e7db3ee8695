package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricOpsDoNotAllocate pins the package's core promise: a metric
// update is an atomic op, never an allocation, for both live and nil
// (disabled) metrics — so instrumentation can sit next to hot loops.
func TestMetricOpsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter", "")
	g := r.Gauge("test_gauge", "")
	fg := r.FloatGauge("test_fgauge", "")
	h := r.Histogram("test_hist", "", LatencyBuckets)
	var nc *Counter
	var ng *Gauge
	var nfg *FloatGauge
	var nh *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-2)
		fg.Set(1.5)
		h.Observe(0.01)
		h.Observe(1e9) // +Inf bucket
		nc.Inc()
		ng.Set(1)
		nfg.Set(1)
		nh.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("metric updates allocated %.1f times per run, want 0", allocs)
	}
}

// TestRegistryIdempotentLookup: same name returns the same metric; a kind
// clash or a malformed name is a programming error and panics.
func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "second registration ignored")
	if a != b {
		t.Fatal("second Counter lookup returned a different metric")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("looked-up counter does not share state")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering a counter name as a gauge did not panic")
			}
		}()
		r.Gauge("x_total", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid metric name did not panic")
			}
		}()
		r.Counter("0bad name", "")
	}()
}

// TestNilRegistryDisablesEverything: nil registry → nil metrics → no-op
// updates, zero reads, empty render. This is the "observability disabled"
// mode drivers rely on when threading metric pointers unconditionally.
func TestNilRegistryDisablesEverything(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "")
	g := r.Gauge("b", "")
	fg := r.FloatGauge("c", "")
	h := r.Histogram("d", "", []float64{1})
	if c != nil || g != nil || fg != nil || h != nil {
		t.Fatal("nil registry handed out non-nil metrics")
	}
	c.Inc()
	g.Set(5)
	fg.Set(5)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil metrics reported non-zero values")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q, %v", buf.String(), err)
	}
}

// TestRegistryConcurrentHammer races registrations and updates on shared
// names; meaningful under -race (the CI race job covers this package).
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("hammer_total", "").Inc()
				r.Gauge("hammer_gauge", "").Add(1)
				r.Histogram("hammer_hist", "", []float64{0.5, 1, 2}).Observe(float64(i % 3))
				if i%50 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Errorf("render during hammer: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hammer_total", "").Value(); got != 8*500 {
		t.Fatalf("hammer_total = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("hammer_hist", "", []float64{0.5, 1, 2}).Count(); got != 8*500 {
		t.Fatalf("hammer_hist count = %d, want %d", got, 8*500)
	}
}

// TestHistogramBucketBoundaries pins the le (less-or-equal) bucket
// semantics at the exact boundary values, the +Inf overflow bucket, and
// the cumulative rendering of per-bucket counts.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 5} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if want := []float64{1, 2, 4}; !floatsEqual(bounds, want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	// 0.5 and 1 land in le=1; 1.0000001 and 2 in le=2; 4 in le=4; 5 in +Inf.
	if cum[0] != 2 || cum[1] != 4 || cum[2] != 5 {
		t.Fatalf("cumulative counts = %v, want [2 4 5]", cum)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := 0.5 + 1 + 1.0000001 + 2 + 4 + 5; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	if want := h.Sum() / 6; h.Mean() != want {
		t.Fatalf("mean = %g, want %g", h.Mean(), want)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-increasing bounds did not panic")
			}
		}()
		newHistogram("bad", "", []float64{1, 1})
	}()
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWritePrometheusGolden pins the exact exposition text: HELP/TYPE
// preambles, name-sorted order, cumulative buckets with a trailing +Inf,
// and _sum/_count lines.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last by name").Add(3)
	r.Gauge("aa_depth", "first by name").Set(-2)
	r.FloatGauge("mm_rate", "a float").Set(1234.5)
	h := r.Histogram("hh_seconds", "a histogram", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)

	const want = `# HELP aa_depth first by name
# TYPE aa_depth gauge
aa_depth -2
# HELP hh_seconds a histogram
# TYPE hh_seconds histogram
hh_seconds_bucket{le="0.5"} 1
hh_seconds_bucket{le="1"} 2
hh_seconds_bucket{le="+Inf"} 3
hh_seconds_sum 4
hh_seconds_count 3
# HELP mm_rate a float
# TYPE mm_rate gauge
mm_rate 1234.5
# HELP zz_total last by name
# TYPE zz_total counter
zz_total 3
`
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("exposition text mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestRunStatusLifecycle drives a small cell grid through its states and
// checks the snapshot accounting: terminal transitions counted once,
// journal hits excluded from the latency mean, ETA present mid-run.
func TestRunStatusLifecycle(t *testing.T) {
	st := NewRunStatus("test-tool")
	st.SetMeta("cafe0123", "/tmp/run.journal")
	st.AddCells("a", "b", "c", "d")
	st.AddCells("a") // redeclaration keeps state

	st.CellRunning("a")
	st.CellDone("a", CellOK, 2*time.Second)
	st.CellDone("b", CellJournal, 0)
	st.CellRunning("c")
	snap := st.Snapshot()
	if snap.Tool != "test-tool" || snap.ConfigHash != "cafe0123" || snap.JournalPath != "/tmp/run.journal" {
		t.Fatalf("meta = %q %q %q", snap.Tool, snap.ConfigHash, snap.JournalPath)
	}
	if snap.TotalCells != 4 || snap.DoneCells != 2 || snap.RunningCells != 1 {
		t.Fatalf("total/done/running = %d/%d/%d, want 4/2/1", snap.TotalCells, snap.DoneCells, snap.RunningCells)
	}
	// Only cell "a" computed; the journal hit must not dilute the mean.
	if snap.MeanCellSeconds != 2 {
		t.Fatalf("mean cell seconds = %g, want 2", snap.MeanCellSeconds)
	}
	if snap.ETASeconds <= 0 {
		t.Fatal("mid-run snapshot has no ETA")
	}
	if snap.Cells["b"] != CellJournal || snap.Cells["d"] != CellPending {
		t.Fatalf("cell states = %v", snap.Cells)
	}

	// A cell finishing twice counts once.
	st.CellDone("c", CellFailed, 0)
	st.CellDone("c", CellOK, time.Second)
	if got := st.Snapshot(); got.DoneCells != 3 {
		t.Fatalf("done after double-finish = %d, want 3", got.DoneCells)
	}
	// So does a finished cell run again, as a search revisiting a
	// candidate does; it shows as finished throughout.
	st.CellRunning("a")
	if got := st.Snapshot(); got.Cells["a"] != CellOK || got.RunningCells != 0 {
		t.Fatalf("finished cell re-run shows %s with %d running", got.Cells["a"], got.RunningCells)
	}
	st.CellDone("a", CellOK, time.Second)
	if got := st.Snapshot(); got.DoneCells != 3 {
		t.Fatalf("done after a finished cell re-ran = %d, want 3", got.DoneCells)
	}

	if line := st.Line(); !strings.Contains(line, "test-tool") || !strings.Contains(line, "3/4 cells") {
		t.Fatalf("Line() = %q", line)
	}

	// Nil status: every call is a no-op, snapshot is zero.
	var nilSt *RunStatus
	nilSt.SetMeta("x", "y")
	nilSt.AddCells("k")
	nilSt.CellRunning("k")
	nilSt.CellDone("k", CellOK, 0)
	if s := nilSt.Snapshot(); s.TotalCells != 0 {
		t.Fatal("nil RunStatus accumulated state")
	}
	if nilSt.Line() != "" {
		t.Fatal("nil RunStatus produced a progress line")
	}
}

// TestStatusJSONRoundTrip renders /status JSON and decodes it back into a
// Snapshot, proving the wire shape is stable and self-consistent.
func TestStatusJSONRoundTrip(t *testing.T) {
	st := NewRunStatus("round-trip")
	st.AddCells("k1", "k2")
	st.CellDone("k1", CellOK, 500*time.Millisecond)
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("decoding /status body: %v\n%s", err, buf.String())
	}
	if snap.Tool != "round-trip" || snap.TotalCells != 2 || snap.DoneCells != 1 {
		t.Fatalf("decoded snapshot = %+v", snap)
	}
	if snap.Cells["k1"] != CellOK || snap.Cells["k2"] != CellPending {
		t.Fatalf("decoded cells = %v", snap.Cells)
	}
	if _, err := time.Parse(time.RFC3339, snap.StartedAt); err != nil {
		t.Fatalf("started_at %q is not RFC3339: %v", snap.StartedAt, err)
	}
}

// TestStatusFullyResumedRunHasFiniteETA pins the fully-resumed edge case:
// when every completed cell was served from the journal, no cell ever
// computed, so there is no per-cell latency and no completion rate to
// extrapolate. Both ETA fields must be exactly 0 — never NaN or Inf,
// which json.Marshal refuses and which would blank the /status body.
func TestStatusFullyResumedRunHasFiniteETA(t *testing.T) {
	st := NewRunStatus("resumed")
	st.AddCells("a", "b", "c")
	for _, k := range []string{"a", "b", "c"} {
		st.CellDone(k, CellJournal, 0)
	}
	snap := st.Snapshot()
	if snap.DoneCells != 3 || snap.TotalCells != 3 {
		t.Fatalf("done/total = %d/%d, want 3/3", snap.DoneCells, snap.TotalCells)
	}
	if snap.MeanCellSeconds != 0 || snap.ETASeconds != 0 {
		t.Fatalf("mean/eta = %g/%g, want 0/0 on a fully journal-served run",
			snap.MeanCellSeconds, snap.ETASeconds)
	}
	if math.IsNaN(snap.MeanCellSeconds) || math.IsInf(snap.ETASeconds, 0) {
		t.Fatal("non-finite ETA fields")
	}
	// The /status body must render: a NaN would make WriteJSON error and
	// the endpoint answer 500 with an empty-looking page.
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON on a fully-resumed run: %v", err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("/status body is not valid JSON: %v\n%s", err, buf.String())
	}
	if decoded.ETASeconds != 0 {
		t.Fatalf("decoded eta = %g, want 0", decoded.ETASeconds)
	}
	// Same guarantee mid-resume: some journal hits, none computed yet.
	st2 := NewRunStatus("mid-resume")
	st2.AddCells("a", "b")
	st2.CellDone("a", CellJournal, 0)
	if s := st2.Snapshot(); s.MeanCellSeconds != 0 || s.ETASeconds != 0 {
		t.Fatalf("mid-resume mean/eta = %g/%g, want 0/0", s.MeanCellSeconds, s.ETASeconds)
	}
}

// TestStatusResumedRunETA: a resume's journal hits take no time, so the
// ETA extrapolates the pace of computed cells only. After 90 hits and one
// computed cell of at least 50ms, the 9 cells left are at least 450ms of
// work.
func TestStatusResumedRunETA(t *testing.T) {
	st := NewRunStatus("resumed")
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell/%d", i)
	}
	st.AddCells(keys...)
	for _, k := range keys[:90] {
		st.CellDone(k, CellJournal, 0)
	}
	time.Sleep(50 * time.Millisecond)
	st.CellDone(keys[90], CellOK, 50*time.Millisecond)
	if eta := st.Snapshot().ETASeconds; eta < 9*0.05 {
		t.Fatalf("eta %gs for 9 cells after one computed 50ms cell, want at least 0.45s", eta)
	}
}

// TestStatusCellLeases covers the fleet-coordinator lease view: leased
// cells show their holder in cell_leases, requeues and completions clear
// it, and the field round-trips through the /status JSON.
func TestStatusCellLeases(t *testing.T) {
	st := NewRunStatus("fleet")
	st.AddCells("a", "b")
	st.CellLeased("a", "worker-1")
	st.CellLeased("b", "worker-2")
	snap := st.Snapshot()
	if snap.CellLeases["a"] != "worker-1" || snap.CellLeases["b"] != "worker-2" {
		t.Fatalf("cell_leases = %v", snap.CellLeases)
	}
	if snap.Cells["a"] != CellRunning {
		t.Fatalf("leased cell state = %s, want running", snap.Cells["a"])
	}

	// A requeued cell (expired lease) returns to pending with no holder.
	st.CellRequeued("a")
	snap = st.Snapshot()
	if _, held := snap.CellLeases["a"]; held {
		t.Fatal("requeued cell still shows a lease holder")
	}
	if snap.Cells["a"] != CellPending {
		t.Fatalf("requeued cell state = %s, want pending", snap.Cells["a"])
	}
	// Requeue of a terminal cell is a no-op on state.
	st.CellDone("b", CellOK, time.Second)
	st.CellRequeued("b")
	snap = st.Snapshot()
	if snap.Cells["b"] != CellOK {
		t.Fatalf("terminal cell demoted by requeue: %s", snap.Cells["b"])
	}
	if len(snap.CellLeases) != 0 {
		t.Fatalf("leases after completion = %v, want none", snap.CellLeases)
	}

	// JSON round-trip carries the lease map while present.
	st.CellLeased("a", "worker-3")
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.CellLeases["a"] != "worker-3" {
		t.Fatalf("decoded cell_leases = %v", decoded.CellLeases)
	}
}

// TestServerEndpoints boots the -listen server on an ephemeral port and
// exercises /metrics, /status, the index, and 404s.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("srv_total", "srv").Add(9)
	st := NewRunStatus("srv-tool")
	srv, err := Serve("127.0.0.1:0", reg, st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, ct := get("/metrics"); code != 200 ||
		!strings.Contains(body, "srv_total 9") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics: code=%d ct=%q body=%q", code, ct, body)
	}
	if code, body, ct := get("/status"); code != 200 ||
		!strings.Contains(body, `"tool": "srv-tool"`) || !strings.Contains(ct, "application/json") {
		t.Fatalf("/status: code=%d ct=%q body=%q", code, ct, body)
	}
	if code, body, _ := get("/"); code != 200 || !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}
	if code, _, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path served %d, want 404", code)
	}
}

// TestStartProgressNonTTY checks the plain-line heartbeat into a buffer
// (never a TTY) and that stop is idempotent and emits a final line.
func TestStartProgressNonTTY(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(w, time.Millisecond, func() string { return "tick" })
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "tick\n") {
		t.Fatalf("no plain heartbeat lines in %q", out)
	}
	if strings.Contains(out, "\r") {
		t.Fatalf("buffer writer got TTY control sequences: %q", out)
	}

	// Zero interval disables the ticker entirely.
	stop2 := StartProgress(&buf, 0, func() string { panic("line() called with ticker disabled") })
	stop2()
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
