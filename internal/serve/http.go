package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"betty/internal/memory"
)

// PredictRequest is the POST /v1/predict body: one JSON object and nothing
// after it. A body longer than predictBodyBytes(MaxRequestNodes) is refused
// with 413 once the bound is read, before any of it is decoded.
type PredictRequest struct {
	// Nodes are the global node IDs to score.
	Nodes []int32 `json:"nodes"`
	// TimeoutMS overrides the server's default deadline for this request:
	// absent or 0 uses the default, a positive value sets the deadline,
	// -1 disables it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// predictBodyBytes bounds a predict body for a server admitting at most
// maxNodes nodes per request: 16 bytes per ID covers "-2147483648," with
// room for whitespace, and 4 KiB covers the rest of the object.
func predictBodyBytes(maxNodes int) int64 {
	return int64(maxNodes)*16 + 4<<10
}

// PredictResponse is the success body: Scores[i] holds the class scores
// (unnormalized logits) for Nodes[i]. Go's encoding/json renders float32
// with the shortest round-tripping representation, so decoding the scores
// back to float32 is bit-exact — clients can compare predictions across
// servers bitwise.
type PredictResponse struct {
	Nodes  []int32     `json:"nodes"`
	Scores [][]float32 `json:"scores"`
}

// errorResponse is the failure body of every endpoint.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/predict — score seed nodes (dynamic batching applies)
//	GET  /healthz    — liveness ("ok", or "draining" after Close)
//	GET  /metricsz   — the obs registry as NDJSON (empty without one)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, predictBodyBytes(s.cfg.MaxRequestNodes)))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err.Error())
		return
	}
	var req PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	// The upper bound keeps the millisecond-to-Duration product from wrapping.
	if maxMS := int64(math.MaxInt64 / time.Millisecond); req.TimeoutMS < -1 || req.TimeoutMS > maxMS {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("timeout_ms must be in [-1, %d]", maxMS))
		return
	}
	// Predict's timeout convention: negative = server default, 0 = none.
	timeout := -time.Millisecond
	switch {
	case req.TimeoutMS == -1:
		timeout = 0
	case req.TimeoutMS > 0:
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	scores, err := s.Predict(req.Nodes, timeout)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(PredictResponse{Nodes: req.Nodes, Scores: scores}); err != nil {
		s.obs.Add("serve.http_encode_errors", 1)
	}
}

// statusFor maps the admission sentinels to their documented status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest // 400
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, ErrDeadlineExceeded):
		return http.StatusGatewayTimeout // 504
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, memory.ErrCannotFit):
		return http.StatusInsufficientStorage // 507: request cannot fit the budget at any K
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if closed {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"status": status})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if s.obs == nil {
		return
	}
	if err := s.obs.WriteNDJSON(w); err != nil {
		s.obs.Add("serve.http_encode_errors", 1)
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}
