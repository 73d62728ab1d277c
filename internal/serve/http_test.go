package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"betty/internal/obs"
)

// postPredict sends one predict call and decodes the body into out (which
// may be *PredictResponse or *errorResponse), returning the status code.
func postPredict(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestHTTPPredict(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	reg := obs.New(nil)
	cfg := testConfig(nil, reg) // real clock under HTTP
	s := newTestServer(t, d, model, cfg)
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ok PredictResponse
	if code := postPredict(t, ts.URL, `{"nodes":[3,8,120]}`, &ok); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	if len(ok.Scores) != 3 || len(ok.Scores[0]) != d.NumClasses {
		t.Fatalf("response shape %dx%d", len(ok.Scores), len(ok.Scores[0]))
	}
	// JSON round-trips float32 exactly, so the HTTP response must be
	// bitwise the in-process prediction.
	want := soloScores(t, d, model, testConfig(nil, nil), []int32{3, 8, 120})
	if !bitwiseEqual(ok.Scores, want) {
		t.Fatal("HTTP scores differ from in-process scores")
	}

	var fail errorResponse
	if code := postPredict(t, ts.URL, `{"nodes":[999999]}`, &fail); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node: status %d", code)
	}
	if fail.Error == "" {
		t.Fatal("error body empty")
	}
	if code := postPredict(t, ts.URL, `{nodes:}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", code)
	}
	for _, body := range []string{
		`{"nodes":[1],"timeout_ms":-2}`,
		`{"nodes":[1],"timeout_ms":9223372036855}`, // wraps as a Duration
		`{"nodes":[1]} {"nodes":[2]}`,
		`{"nodes":[1]}]`,
	} {
		if code := postPredict(t, ts.URL, body, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, code)
		}
	}
	if code := postPredict(t, ts.URL, oversizeBody(cfg.MaxRequestNodes), &fail); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", code)
	}
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d", resp.StatusCode)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	reg := obs.New(nil)
	s := newTestServer(t, d, model, testConfig(nil, reg))
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz %d %q", code, body)
	}
	if code := postPredict(t, ts.URL, `{"nodes":[1,2]}`, nil); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	code, body := get("/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz status %d", code)
	}
	if !strings.HasPrefix(body, `{"type":"meta"`) || !strings.Contains(body, `"serve.requests"`) {
		t.Fatalf("metricsz body missing serve metrics: %q", body)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("post-close healthz %d %q", code, body)
	}
	var fail errorResponse
	if code := postPredict(t, ts.URL, `{"nodes":[1]}`, &fail); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close predict status %d", code)
	}
}

// statusFor must map every sentinel to its documented code.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{ErrInvalid, http.StatusBadRequest},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{ErrClosed, http.StatusServiceUnavailable},
		{io.ErrUnexpectedEOF, http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.code {
			t.Fatalf("statusFor(%v) = %d, want %d", c.err, got, c.code)
		}
	}
}

// oversizeBody is a well-formed predict body longer than the bound for
// maxNodes, made of small in-range IDs.
func oversizeBody(maxNodes int) string {
	ids := strings.Repeat("1,", int(predictBodyBytes(maxNodes)/2))
	return `{"nodes":[` + ids + `1]}`
}

// Whatever the body, /v1/predict answers JSON with one of its documented
// statuses — never a 500, never a panic — and the server stays healthy.
func FuzzPredictBody(f *testing.F) {
	for _, body := range []string{
		`{"nodes":[3,8,120]}`,
		`{"nodes":[3,3,3],"timeout_ms":-1}`,
		`{"nodes":[]}`,
		`{"nodes":null}`,
		`{"nodes":[800]}`,
		`{"nodes":[-1]}`,
		`{"nodes":[4294967296]}`,
		`{"nodes":[1],"timeout_ms":-2}`,
		`{"nodes":[1],"timeout_ms":9223372036854775807}`,
		`{"nodes":[1]} garbage`,
		`{"nodes":[` + strings.Repeat("7,", 1024) + `7]}`, // one node over MaxRequestNodes
		oversizeBody(Defaults().MaxRequestNodes),
		``,
	} {
		f.Add(body)
	}
	d := testData(f)
	reg := obs.New(nil)
	s, err := New(d, testModel(f, d), testConfig(nil, reg))
	if err != nil {
		f.Fatal(err)
	}
	s.Start()
	defer s.Close()
	h := s.Handler()
	documented := []int{
		http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusGatewayTimeout, http.StatusInsufficientStorage,
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if !slices.Contains(documented, rec.Code) {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("status %d with Content-Type %q", rec.Code, ct)
		}
		if rec.Code == http.StatusOK {
			var ok PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil || len(ok.Scores) != len(ok.Nodes) || len(ok.Nodes) == 0 {
				t.Fatalf("200 body %q: %v", rec.Body, err)
			}
		} else {
			var fail errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil || fail.Error == "" {
				t.Fatalf("status %d body %q: %v", rec.Code, rec.Body, err)
			}
		}
		health := httptest.NewRecorder()
		h.ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if health.Code != http.StatusOK || reg.CounterValue("serve.panics") != 0 {
			t.Fatalf("server unhealthy after %q: healthz %d, %d panics", body, health.Code, reg.CounterValue("serve.panics"))
		}
	})
}
