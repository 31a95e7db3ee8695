package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mpppb/internal/journal"
	"mpppb/internal/obs"
)

// Wire protocol: five JSON-over-POST endpoints mounted on the
// coordinator's obs HTTP server. Every request carries the worker's id and
// the run fingerprint; a fingerprint mismatch is answered with 409 and the
// worker treats it as fatal (a different binary or config cannot
// contribute cells to this campaign).
//
//	POST /lease    {worker, fingerprint, keys[]}            → {granted, drained, key?, lease_id?, ttl_ms?}
//	POST /renew    {worker, fingerprint, key, lease_id}     → {ok}
//	POST /complete {worker, fingerprint, key, lease_id, value} → {ok}
//	POST /fail     {worker, fingerprint, key, lease_id, error}  → {ok}
//	POST /cells    {worker, fingerprint, keys[]}            → {cells: [{key, status, value?, error?}]}

// maxBodyBytes bounds request bodies. Cell values are small structs; 16MB
// is far above anything legitimate.
const maxBodyBytes = 16 << 20

type leaseRequest struct {
	Worker      string              `json:"worker"`
	Fingerprint journal.Fingerprint `json:"fingerprint"`
	Keys        []string            `json:"keys"`
}

type leaseResponse struct {
	Granted  bool   `json:"granted"`
	Drained  bool   `json:"drained"`
	Key      string `json:"key,omitempty"`
	LeaseID  uint64 `json:"lease_id,omitempty"`
	TTLMilli int64  `json:"ttl_ms,omitempty"`
}

type renewRequest struct {
	Worker      string              `json:"worker"`
	Fingerprint journal.Fingerprint `json:"fingerprint"`
	Key         string              `json:"key"`
	LeaseID     uint64              `json:"lease_id"`
}

type okResponse struct {
	OK bool `json:"ok"`
}

type completeRequest struct {
	Worker      string              `json:"worker"`
	Fingerprint journal.Fingerprint `json:"fingerprint"`
	Key         string              `json:"key"`
	LeaseID     uint64              `json:"lease_id"`
	Value       json.RawMessage     `json:"value"`
}

type failRequest struct {
	Worker      string              `json:"worker"`
	Fingerprint journal.Fingerprint `json:"fingerprint"`
	Key         string              `json:"key"`
	LeaseID     uint64              `json:"lease_id"`
	Error       string              `json:"error"`
}

type cellsRequest struct {
	Worker      string              `json:"worker"`
	Fingerprint journal.Fingerprint `json:"fingerprint"`
	Keys        []string            `json:"keys"`
}

type cellsResponse struct {
	Cells []CellSnapshot `json:"cells"`
}

// decode reads one JSON request body into v, enforcing POST and the size
// cap. A false return means the response has already been written.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes v as the JSON response body.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(b, '\n'))
}

// fail maps a board error to an HTTP status: fingerprint mismatches are
// 409 Conflict (the worker gives up), everything else 400.
func fail(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrFingerprint) {
		code = http.StatusConflict
	}
	http.Error(w, err.Error(), code)
}

// Routes returns the work-lease API as obs routes, ready to mount on the
// coordinator's -listen server next to /metrics and /status.
func Routes(b *Board) []obs.Route {
	return []obs.Route{
		{Pattern: "/lease", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req leaseRequest
			if !decode(w, r, &req) {
				return
			}
			key, leaseID, ttl, granted, drained, err := b.Lease(req.Worker, req.Fingerprint, req.Keys)
			if err != nil {
				fail(w, err)
				return
			}
			reply(w, leaseResponse{
				Granted:  granted,
				Drained:  drained,
				Key:      key,
				LeaseID:  leaseID,
				TTLMilli: ttl.Milliseconds(),
			})
		})},
		{Pattern: "/renew", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req renewRequest
			if !decode(w, r, &req) {
				return
			}
			ok, err := b.Renew(req.Worker, req.Key, req.LeaseID, req.Fingerprint)
			if err != nil {
				fail(w, err)
				return
			}
			reply(w, okResponse{OK: ok})
		})},
		{Pattern: "/complete", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req completeRequest
			if !decode(w, r, &req) {
				return
			}
			if err := b.Complete(req.Worker, req.Key, req.LeaseID, req.Value, req.Fingerprint); err != nil {
				fail(w, err)
				return
			}
			reply(w, okResponse{OK: true})
		})},
		{Pattern: "/fail", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req failRequest
			if !decode(w, r, &req) {
				return
			}
			if err := b.Fail(req.Worker, req.Key, req.LeaseID, req.Error, req.Fingerprint); err != nil {
				fail(w, err)
				return
			}
			reply(w, okResponse{OK: true})
		})},
		{Pattern: "/cells", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req cellsRequest
			if !decode(w, r, &req) {
				return
			}
			cells, err := b.Cells(req.Worker, req.Fingerprint, req.Keys)
			if err != nil {
				fail(w, err)
				return
			}
			reply(w, cellsResponse{Cells: cells})
		})},
	}
}

// errConflict marks coordinator answers that make continuing pointless
// (fingerprint mismatch). The worker surfaces it and stops.
var errConflict = errors.New("fleet: coordinator refused this worker")

// post sends one request/response round trip to the coordinator.
func post(client *http.Client, base, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	r, err := client.Do(httpReq)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if r.StatusCode == http.StatusConflict {
		return fmt.Errorf("%w: %s", errConflict, trimmed(data))
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s: coordinator answered %s: %s", path, r.Status, trimmed(data))
	}
	if resp != nil {
		if err := json.Unmarshal(data, resp); err != nil {
			return fmt.Errorf("fleet: %s: bad coordinator response: %w", path, err)
		}
	}
	return nil
}

// trimmed compacts an error body for inclusion in an error message.
func trimmed(b []byte) string {
	const max = 512
	s := string(b)
	if len(s) > max {
		s = s[:max] + "..."
	}
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// ttlFromMillis converts the wire TTL back to a duration, at least MinTTL.
func ttlFromMillis(ms int64) time.Duration {
	return max(time.Duration(ms)*time.Millisecond, MinTTL)
}
