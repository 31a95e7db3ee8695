// Package journal provides crash-safe checkpointing for the experiment
// drivers: each completed (policy, segment/mix) cell is persisted to an
// append-only JSONL file as soon as it finishes, and a re-invoked run with
// -resume loads the journal, skips every already-completed cell, and
// recomputes only the rest. Because the drivers merge cells by input index
// — never by completion order — a resumed sweep emits final tables
// byte-identical to an uninterrupted run at any -j.
//
// File format: the first line is a header naming the format and the run's
// fingerprint (config hash + build version + seed); every following line
// is one cell record {"key","status","value"|"error"}. Records are
// fsync'd as written. Duplicate keys are legal and last-entry-wins, so a
// cell that failed and was recomputed by a later -resume invocation
// leaves its full trail in the file while the final state is what counts.
// A partial trailing line (a crash mid-write) is truncated on resume;
// corruption anywhere earlier refuses the file.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
)

// magic identifies the file format in the header line. v2 changed the
// value types under existing keys (ROC cells hold count tables), so a v1
// file is refused by name rather than decoded into the new types.
const magic = "mpppb-journal/v2"

// Sentinel errors for the four refusal modes. Callers match with
// errors.Is.
var (
	// ErrExists is returned by Create when the journal file already
	// exists: starting a fresh run over an old journal would silently
	// interleave two runs' cells.
	ErrExists = errors.New("journal: file already exists (use -resume to continue it, or remove it)")
	// ErrMismatch is returned by Resume when the file's fingerprint does
	// not match the current run's: resuming with a different config,
	// binary, or seed would splice incompatible cells into one table.
	ErrMismatch = errors.New("journal: fingerprint mismatch")
	// ErrCorrupt is returned by Resume when a non-trailing line fails to
	// parse: the file cannot be trusted.
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrFormat is returned by Resume when the header names another
	// version of the journal format: its cell values do not decode as
	// this binary's.
	ErrFormat = errors.New("journal: unsupported format")
)

// Fingerprint identifies the run a journal belongs to. Two runs may share
// cells only when all three fields match.
type Fingerprint struct {
	// Config is a hash of every input that shapes the cell grid and the
	// cell values (see ConfigHash).
	Config string `json:"config"`
	// Version identifies the binary (VCS revision, see BuildVersion).
	Version string `json:"version"`
	// Seed is the run's RNG seed, for drivers that have one.
	Seed int64 `json:"seed"`
}

type header struct {
	Journal     string      `json:"journal"`
	Fingerprint Fingerprint `json:"fingerprint"`
}

// Status values for cell records.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

type record struct {
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Value  json.RawMessage `json:"value,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Journal is an open checkpoint file, or with no file (Memory) the same
// table kept in memory only; either way it is the run's one memo, serving
// every recorded cell by key. All methods are safe for concurrent use and
// safe on a nil receiver (a nil *Journal is "journaling disabled": Load
// always misses, Record is a no-op), so drivers thread one pointer
// through unconditionally.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	entries map[string]record
}

// Memory returns a journal with no file: it records and serves cells for
// the life of the process and persists nothing.
func Memory() *Journal { return &Journal{entries: make(map[string]record)} }

// Create starts a new journal at path for the given fingerprint. It
// refuses with ErrExists if the file is already there.
func Create(path string, fp Fingerprint) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("%w: %s", ErrExists, path)
		}
		return nil, err
	}
	j := &Journal{f: f, path: path, entries: make(map[string]record)}
	if err := j.writeLine(header{Journal: magic, Fingerprint: fp}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// Resume opens an existing journal, verifies its fingerprint, loads every
// completed cell (last entry per key wins), truncates a partial trailing
// line if the previous run crashed mid-write, and reopens the file for
// appending. Records already loaded are served from memory by Load.
func Resume(path string, fp Fingerprint) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries, goodLen, err := parse(path, data, fp)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if int64(goodLen) < int64(len(data)) {
		if err := f.Truncate(int64(goodLen)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(goodLen), 0); err != nil {
		f.Close()
		return nil, err
	}
	mResumedEntries.Add(uint64(len(entries)))
	return &Journal{f: f, path: path, entries: entries}, nil
}

// parse validates the header and replays the records, returning the
// last-wins entry map and the byte length of the well-formed prefix.
func parse(path string, data []byte, fp Fingerprint) (map[string]record, int, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, 0, fmt.Errorf("%w: %s: missing or incomplete header", ErrCorrupt, path)
	}
	var h header
	switch err := json.Unmarshal(data[:nl], &h); {
	case err == nil && h.Journal != magic && strings.HasPrefix(h.Journal, "mpppb-journal/"):
		return nil, 0, fmt.Errorf("%w: %s: written in format %s, this binary reads %s; start a new journal",
			ErrFormat, path, h.Journal, magic)
	case err != nil || h.Journal != magic:
		return nil, 0, fmt.Errorf("%w: %s: not a journal header", ErrCorrupt, path)
	}
	if h.Fingerprint != fp {
		return nil, 0, fmt.Errorf("%w: %s: journal was written by config=%s version=%s seed=%d, this run is config=%s version=%s seed=%d",
			ErrMismatch, path,
			h.Fingerprint.Config, h.Fingerprint.Version, h.Fingerprint.Seed,
			fp.Config, fp.Version, fp.Seed)
	}
	entries := make(map[string]record)
	goodLen := nl + 1
	rest := data[goodLen:]
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// Trailing bytes without a newline: a crash mid-write. The
			// caller truncates them away.
			break
		}
		line := rest[:nl]
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" ||
			(rec.Status != StatusOK && rec.Status != StatusFailed) {
			return nil, 0, fmt.Errorf("%w: %s: bad record at byte %d", ErrCorrupt, path, goodLen)
		}
		entries[rec.Key] = rec
		goodLen += nl + 1
		rest = rest[nl+1:]
	}
	return entries, goodLen, nil
}

// writeLine marshals v, appends it as one line, and fsyncs; with no file
// it does nothing. Caller holds no lock on the Create path; Record takes
// the mutex.
func (j *Journal) writeLine(v any) error {
	if j.f == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	return j.f.Sync()
}

// Record persists a completed cell. v must round-trip through
// encoding/json losslessly — the drivers journal only exported plain-data
// cell types (and sim.Result.Deterministic() values) for exactly this
// reason. No-op on a nil Journal.
func (j *Journal) Record(key string, v any) error {
	if j == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal %s: %w", key, err)
	}
	rec := record{Key: key, Status: StatusOK, Value: raw}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[key] = rec
	mRecorded.Inc()
	return j.writeLine(rec)
}

// RecordRaw persists a completed cell whose value is already marshaled —
// the fleet coordinator merges worker results this way, byte-for-byte as
// the worker produced them. raw must be a single valid JSON value; a
// partial or malformed payload is refused so a truncated worker upload can
// never poison the journal. No-op on a nil Journal.
func (j *Journal) RecordRaw(key string, raw json.RawMessage) error {
	if j == nil {
		return nil
	}
	if len(raw) == 0 || !json.Valid(raw) {
		return fmt.Errorf("journal: refusing partial or malformed value for %s", key)
	}
	rec := record{Key: key, Status: StatusOK, Value: raw}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[key] = rec
	mRecorded.Inc()
	return j.writeLine(rec)
}

// LoadRaw returns a completed cell's marshaled value without decoding it,
// reporting whether the key was found with status ok — the raw twin of
// Load, for callers (the fleet coordinator) that forward values verbatim.
// Always misses on a nil Journal.
func (j *Journal) LoadRaw(key string) (json.RawMessage, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	rec, ok := j.entries[key]
	j.mu.Unlock()
	if !ok || rec.Status != StatusOK {
		return nil, false
	}
	mServed.Inc()
	return rec.Value, true
}

// RecordFailure persists a cell that failed, so a resumed run knows the
// failure was explicit rather than a missing cell. A later Record for the
// same key supersedes it. No-op on a nil Journal.
func (j *Journal) RecordFailure(key string, cellErr error) error {
	if j == nil {
		return nil
	}
	rec := record{Key: key, Status: StatusFailed, Error: cellErr.Error()}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[key] = rec
	mFailuresRecorded.Inc()
	return j.writeLine(rec)
}

// Load reads a completed cell into v, reporting whether the key was found
// with status ok. A failed or absent cell misses (the driver recomputes
// it). Always misses on a nil Journal.
func (j *Journal) Load(key string, v any) (bool, error) {
	if j == nil {
		return false, nil
	}
	j.mu.Lock()
	rec, ok := j.entries[key]
	j.mu.Unlock()
	if !ok || rec.Status != StatusOK {
		return false, nil
	}
	if err := json.Unmarshal(rec.Value, v); err != nil {
		return false, fmt.Errorf("journal: unmarshal %s: %w", key, err)
	}
	mServed.Inc()
	return true, nil
}

// Len returns the number of distinct keys recorded (ok or failed).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Close flushes and closes the file. No-op on a nil Journal.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}
