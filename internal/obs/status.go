package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"
)

// CellState is the lifecycle of one grid cell in a run manifest.
type CellState string

// Cell lifecycle: declared → dispatched → finished (one of three ways).
const (
	CellPending CellState = "pending"
	CellRunning CellState = "running"
	CellOK      CellState = "ok"
	// CellJournal marks a cell served from the checkpoint journal rather
	// than recomputed.
	CellJournal CellState = "journal"
	CellFailed  CellState = "failed"
)

func (c CellState) finished() bool { return c == CellOK || c == CellJournal || c == CellFailed }

// RunStatus is the live manifest behind the /status endpoint and the
// -progress ticker: what run this is (tool, config hash, journal path),
// the cell grid with per-cell state, and completion/ETA accounting fed by
// the experiment drivers. All methods are safe for concurrent use and
// no-ops on a nil receiver, so drivers thread one pointer unconditionally.
type RunStatus struct {
	mu sync.Mutex

	tool        string
	configHash  string
	journalPath string
	started     time.Time

	order  []string
	cells  map[string]CellState
	leases map[string]string // cell key → fleet worker currently holding it

	done       int // cells in a terminal state
	computed   int // subset of done that ran (not served from journal)
	computeSum time.Duration
}

// NewRunStatus starts a manifest for one tool invocation.
func NewRunStatus(tool string) *RunStatus {
	return &RunStatus{
		tool:    tool,
		started: time.Now(),
		cells:   map[string]CellState{},
	}
}

// SetMeta records the run's journal fingerprint hash and journal path
// (empty strings are fine: journaling disabled).
func (s *RunStatus) SetMeta(configHash, journalPath string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.configHash, s.journalPath = configHash, journalPath
	s.mu.Unlock()
}

// AddCells declares grid cells as pending. Keys already declared keep
// their current state (a resumed or multi-experiment run declares grids
// incrementally).
func (s *RunStatus) AddCells(keys ...string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, k := range keys {
		if _, ok := s.cells[k]; !ok {
			s.order = append(s.order, k)
			s.cells[k] = CellPending
		}
	}
	s.mu.Unlock()
}

// CellRunning marks a cell as dispatched to a worker. A finished cell
// keeps its state: a search that revisits a candidate runs its cells
// again, and each still counts once.
func (s *RunStatus) CellRunning(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.cells[key].finished() {
		s.setLocked(key, CellRunning)
	}
	s.mu.Unlock()
}

// CellLeased marks a cell as leased to a named fleet worker: the cell
// shows as running and /status reports the holder in cell_leases.
func (s *RunStatus) CellLeased(key, worker string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.setLocked(key, CellRunning)
	if s.leases == nil {
		s.leases = map[string]string{}
	}
	s.leases[key] = worker
	s.mu.Unlock()
}

// CellRequeued returns a dispatched-but-unfinished cell to pending (a
// fleet lease expired). Terminal cells are left untouched.
func (s *RunStatus) CellRequeued(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.cells[key] == CellRunning {
		s.setLocked(key, CellPending)
	}
	delete(s.leases, key)
	s.mu.Unlock()
}

// CellDone marks a cell's terminal state. elapsed is the cell's wall time
// when it was computed (pass 0 for CellJournal — journal hits don't inform
// the ETA's per-cell latency mean).
func (s *RunStatus) CellDone(key string, state CellState, elapsed time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	prev := s.cells[key]
	s.setLocked(key, state)
	// A cell run twice in one process finishes twice; count it once.
	if !prev.finished() {
		s.done++
		if state != CellJournal {
			s.computed++
			s.computeSum += elapsed
		}
	}
	delete(s.leases, key)
	s.mu.Unlock()
}

// setLocked records a state, declaring the key on the fly if needed.
func (s *RunStatus) setLocked(key string, state CellState) {
	if _, ok := s.cells[key]; !ok {
		s.order = append(s.order, key)
	}
	s.cells[key] = state
}

// Snapshot is the JSON shape of /status.
type Snapshot struct {
	Tool        string `json:"tool"`
	ConfigHash  string `json:"config_hash,omitempty"`
	JournalPath string `json:"journal_path,omitempty"`
	StartedAt   string `json:"started_at"`
	// UptimeSeconds is wall time since the manifest was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Cells maps every declared key to its state, and the counters below
	// summarize them.
	Cells     map[string]CellState `json:"cells"`
	CellOrder []string             `json:"cell_order"`
	// CellLeases maps cells currently leased to a fleet worker to the
	// worker holding them (coordinator runs only).
	CellLeases   map[string]string `json:"cell_leases,omitempty"`
	TotalCells   int               `json:"total_cells"`
	DoneCells    int               `json:"done_cells"`
	RunningCells int               `json:"running_cells"`
	FailedCells  int               `json:"failed_cells"`
	// MeanCellSeconds is the moving mean wall time of computed (not
	// journal-served) cells; ETASeconds extrapolates the remaining cells
	// at the pace of the computed ones. Both 0 until a cell computes.
	MeanCellSeconds float64 `json:"mean_cell_seconds"`
	ETASeconds      float64 `json:"eta_seconds"`
}

// Snapshot returns a copy of the current state. Zero value on a nil
// RunStatus.
func (s *RunStatus) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Tool:        s.tool,
		ConfigHash:  s.configHash,
		JournalPath: s.journalPath,
		StartedAt:   s.started.Format(time.RFC3339),
		Cells:       make(map[string]CellState, len(s.cells)),
		CellOrder:   append([]string(nil), s.order...),
		TotalCells:  len(s.order),
		DoneCells:   s.done,
	}
	snap.UptimeSeconds = time.Since(s.started).Seconds()
	for k, st := range s.cells {
		snap.Cells[k] = st
		switch st {
		case CellRunning:
			snap.RunningCells++
		case CellFailed:
			snap.FailedCells++
		}
	}
	if len(s.leases) > 0 {
		snap.CellLeases = make(map[string]string, len(s.leases))
		for k, w := range s.leases {
			snap.CellLeases[k] = w
		}
	}
	// ETA needs at least one *computed* cell: journal hits take no time,
	// so a fully-resumed run (every done cell served from the journal) has
	// no pace to extrapolate and both fields stay 0 — never a NaN/Inf,
	// which json.Marshal refuses and which would blank the /status body.
	if s.computed > 0 {
		snap.MeanCellSeconds = s.computeSum.Seconds() / float64(s.computed)
		// Completion-rate ETA: remaining cells at the pace of the cells
		// computed so far, so a resume's journal hits do not make the
		// remaining work look instant. The per-cell mean above is wall
		// time inside one worker; the rate below folds pool width in for
		// free.
		if s.done < len(s.order) {
			rate := time.Since(s.started).Seconds() / float64(s.computed)
			snap.ETASeconds = rate * float64(len(s.order)-s.done)
		}
	}
	// Belt and braces for the JSON contract: no arithmetic above should
	// produce a non-finite value, but /status must never 500 over one.
	if math.IsNaN(snap.MeanCellSeconds) || math.IsInf(snap.MeanCellSeconds, 0) {
		snap.MeanCellSeconds = 0
	}
	if math.IsNaN(snap.ETASeconds) || math.IsInf(snap.ETASeconds, 0) {
		snap.ETASeconds = 0
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON (the /status body).
func (s *RunStatus) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	b, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Line renders a one-line human progress summary for the stderr ticker.
func (s *RunStatus) Line() string {
	if s == nil {
		return ""
	}
	snap := s.Snapshot()
	if snap.TotalCells == 0 {
		return fmt.Sprintf("%s: up %s", snap.Tool, fmtDuration(snap.UptimeSeconds))
	}
	line := fmt.Sprintf("%s: %d/%d cells done", snap.Tool, snap.DoneCells, snap.TotalCells)
	if snap.RunningCells > 0 {
		line += fmt.Sprintf(", %d running", snap.RunningCells)
	}
	if snap.FailedCells > 0 {
		line += fmt.Sprintf(", %d FAILED", snap.FailedCells)
	}
	if snap.ETASeconds > 0 {
		line += fmt.Sprintf(", eta %s", fmtDuration(snap.ETASeconds))
	}
	return line
}

// fmtDuration renders seconds as a compact duration (1m23s, not 83.2s).
func fmtDuration(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Second).String()
}
