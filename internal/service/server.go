package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"fpsping/internal/core"
	"fpsping/internal/memo"
	"fpsping/internal/metrics"
	"fpsping/internal/mgf"
	"fpsping/internal/scenario"
	"fpsping/internal/traffic"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload is a
// batch of a few thousand scenarios, far below this.
const maxBodyBytes = 4 << 20

// maxSnapshotBody bounds /v1/cache:warm uploads separately from the JSON
// request cap: a snapshot of a well-filled cache is legitimately far larger
// than any scenario batch.
const maxSnapshotBody = 256 << 20

// CacheHeader reports on every model endpoint whether the engine cache (or
// a joined in-flight computation) answered: "hit" or "miss". The body is
// byte-identical either way.
const CacheHeader = "X-Fpsping-Cache"

// Server is the fpspingd HTTP front end: routing, JSON codecs and metrics
// around an Engine, plus lifecycle (listen, serve, graceful shutdown).
type Server struct {
	engine *Engine
	http   *http.Server
	ln     net.Listener

	// draining flips on BeginDrain; readyGen increments on every readiness
	// transition so a poller (the cluster router) can tell a restart from a
	// long-lived process and a drain from a death: a draining daemon still
	// answers /healthz (alive, ready=false), a dead one answers nothing.
	draining atomic.Bool
	readyGen atomic.Uint64
}

// NewServer wraps the engine in an HTTP server bound to addr (host:port;
// port 0 picks a free port, see Addr).
func NewServer(addr string, e *Engine) *Server {
	s := &Server{engine: e}
	s.readyGen.Store(1) // generation 1 = first ready period of this process
	s.http = &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// BeginDrain marks the server not-ready ahead of Shutdown: /healthz keeps
// answering 200 with status "draining" and ready=false, so a router routes
// new traffic away while in-flight requests finish. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.readyGen.Add(1)
	}
}

// Handler returns the daemon's full route table. It is exported so tests
// can drive the service through net/http/httptest without a socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/rtt", s.instrument("/v1/rtt", s.handleRTT))
	mux.HandleFunc("/v1/rtt:batch", s.instrument("/v1/rtt:batch", s.handleBatch))
	mux.HandleFunc("/v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("/v1/dimension", s.instrument("/v1/dimension", s.handleDimension))
	mux.HandleFunc("/v1/models", s.instrument("/v1/models", s.handleModels))
	mux.HandleFunc("/v1/cache:dump", s.handleCacheDump)
	mux.HandleFunc("/v1/cache:warm", s.handleCacheWarm)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Listen binds the server's address. After Listen, Addr reports the
// concrete address (useful with port 0).
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.http.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address after Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.http.Addr
	}
	return s.ln.Addr().String()
}

// Serve blocks serving requests until Shutdown (returning nil) or a listener
// error. Listen must have succeeded first.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("service: Serve before Listen")
	}
	if err := s.http.Serve(s.ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains in-flight requests and closes the listener (graceful up
// to the context's deadline).
func (s *Server) Shutdown(ctx context.Context) error { return s.http.Shutdown(ctx) }

// apiError is the uniform error envelope.
type apiError struct {
	Error string `json:"error"`
}

// errBadRequest marks request-decoding failures (malformed JSON, unknown
// keys, unparsable parameters) so errStatus can blame the client.
var errBadRequest = errors.New("service: bad request")

// badRequest tags err as the client's fault; nil stays nil.
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errBadRequest, err)
}

// writeJSON marshals v compactly; the compact single-marshal path keeps
// responses byte-identical across requests, workers and cache states.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// errStatus maps model errors to HTTP statuses: invalid scenarios and
// unusable snapshots are the client's fault (400); unstable scenarios, and
// scenarios whose delay law fails validation (a D/E_K/1 root solve at a
// large Erlang order), are valid questions without an answer (422);
// anything else is a server error.
func errStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrBadModel), errors.Is(err, errBadRequest),
		errors.Is(err, memo.ErrSnapshot), errors.Is(err, memo.ErrSchemaMismatch):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrUnstable), errors.Is(err, mgf.ErrInvalid):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// handlerFunc is an endpoint body: it reports whether the engine cache
// answered and what failed, letting instrument own metrics and errors.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (cached bool, err error)

// instrument wraps an endpoint with method filtering, error rendering and
// metrics observation.
func (s *Server) instrument(name string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			w.Header().Set("Allow", "GET, POST")
			writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "use GET or POST"})
			return
		}
		start := time.Now()
		cached, err := h(w, r)
		if err != nil {
			writeJSON(w, errStatus(err), apiError{Error: err.Error()})
		}
		s.engine.Metrics().Observe(name, time.Since(start), cached, err != nil)
	}
}

// readBody slurps a bounded request body ("" for GET).
func readBody(r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("service: reading body: %w", err)
	}
	if len(data) > maxBodyBytes {
		return nil, badRequest(fmt.Errorf("body over %d bytes", maxBodyBytes))
	}
	return data, nil
}

// strictUnmarshal decodes JSON rejecting unknown top-level keys, so a
// mis-keyed request field fails loudly instead of silently falling back to
// a default (mirroring scenario.FromJSON's DisallowUnknownFields).
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// scenarioFromRequest accepts the two query styles: a JSON Scenario body
// (POST) or scenario query parameters (GET or empty-body POST).
func scenarioFromRequest(r *http.Request, body []byte) (scenario.Scenario, error) {
	if len(body) > 0 {
		sc, err := scenario.FromJSON(body)
		return sc, badRequest(err)
	}
	sc, err := scenario.FromQuery(r.URL.Query())
	return sc, badRequest(err)
}

// queryFloat parses an optional float query parameter.
func queryFloat(values url.Values, key string, def float64) (float64, error) {
	v := values.Get(key)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, badRequest(fmt.Errorf("parameter %q: %w", key, err))
	}
	return f, nil
}

func (s *Server) handleRTT(w http.ResponseWriter, r *http.Request) (bool, error) {
	body, err := readBody(r)
	if err != nil {
		return false, err
	}
	sc, err := scenarioFromRequest(r, body)
	if err != nil {
		return false, err
	}
	res, cached, err := s.engine.RTT(sc)
	if err != nil {
		return false, err
	}
	w.Header().Set(CacheHeader, hitOrMiss(cached))
	writeJSON(w, http.StatusOK, res)
	return cached, nil
}

// BatchRequest is the /v1/rtt:batch payload. Scenarios stay raw so each
// item is decoded (and each item's error attributed) individually.
type BatchRequest struct {
	Scenarios []json.RawMessage `json:"scenarios"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (bool, error) {
	body, err := readBody(r)
	if err != nil {
		return false, err
	}
	if len(body) == 0 {
		return false, badRequest(errors.New("batch needs a JSON body {\"scenarios\": [...]}"))
	}
	var req BatchRequest
	if err := strictUnmarshal(body, &req); err != nil {
		return false, badRequest(fmt.Errorf("batch body: %w", err))
	}
	if len(req.Scenarios) == 0 {
		return false, badRequest(errors.New("batch needs at least one scenario"))
	}
	scs := make([]scenario.Scenario, len(req.Scenarios))
	for i, raw := range req.Scenarios {
		sc, err := scenario.FromJSON(raw)
		if err != nil {
			return false, badRequest(fmt.Errorf("scenario %d: %w", i, err))
		}
		scs[i] = sc
	}
	res := s.engine.Batch(scs)
	cached := res.Cached == len(res.Results)
	w.Header().Set(CacheHeader, hitOrMiss(cached))
	writeJSON(w, http.StatusOK, res)
	return cached, nil
}

// SweepRequest is the /v1/sweep POST payload; an absent Scenario sweeps the
// default one.
type SweepRequest struct {
	Scenario json.RawMessage `json:"scenario"`
	From     float64         `json:"from"`
	To       float64         `json:"to"`
	Step     float64         `json:"step"`
}

// DimensionRequest is the /v1/dimension POST payload; an absent Scenario
// dimensions the default one.
type DimensionRequest struct {
	Scenario json.RawMessage `json:"scenario"`
	BoundMs  float64         `json:"bound_ms"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) (bool, error) {
	body, err := readBody(r)
	if err != nil {
		return false, err
	}
	req := SweepRequest{From: 0.05, To: 0.90, Step: 0.05}
	var sc scenario.Scenario
	if len(body) > 0 {
		if err := strictUnmarshal(body, &req); err != nil {
			return false, badRequest(fmt.Errorf("sweep body: %w", err))
		}
		if len(req.Scenario) > 0 {
			if sc, err = scenario.FromJSON(req.Scenario); err != nil {
				return false, badRequest(err)
			}
		} else {
			sc = scenario.Default()
		}
	} else {
		q := r.URL.Query()
		if sc, err = scenario.FromQuery(q, "from", "to", "step"); err != nil {
			return false, badRequest(err)
		}
		if req.From, err = queryFloat(q, "from", req.From); err != nil {
			return false, err
		}
		if req.To, err = queryFloat(q, "to", req.To); err != nil {
			return false, err
		}
		if req.Step, err = queryFloat(q, "step", req.Step); err != nil {
			return false, err
		}
	}
	res, cached, err := s.engine.Sweep(sc, req.From, req.To, req.Step)
	if err != nil {
		return false, err
	}
	w.Header().Set(CacheHeader, hitOrMiss(cached))
	writeJSON(w, http.StatusOK, res)
	return cached, nil
}

func (s *Server) handleDimension(w http.ResponseWriter, r *http.Request) (bool, error) {
	body, err := readBody(r)
	if err != nil {
		return false, err
	}
	req := DimensionRequest{BoundMs: 50}
	var sc scenario.Scenario
	if len(body) > 0 {
		if err := strictUnmarshal(body, &req); err != nil {
			return false, badRequest(fmt.Errorf("dimension body: %w", err))
		}
		if len(req.Scenario) > 0 {
			if sc, err = scenario.FromJSON(req.Scenario); err != nil {
				return false, badRequest(err)
			}
		} else {
			sc = scenario.Default()
		}
	} else {
		q := r.URL.Query()
		if sc, err = scenario.FromQuery(q, "bound", "bound_ms"); err != nil {
			return false, badRequest(err)
		}
		// "bound" is the short query spelling; "bound_ms" matches the JSON
		// body field. Either works, bound_ms winning when both are given.
		if req.BoundMs, err = queryFloat(q, "bound", req.BoundMs); err != nil {
			return false, err
		}
		if req.BoundMs, err = queryFloat(q, "bound_ms", req.BoundMs); err != nil {
			return false, err
		}
	}
	if !(req.BoundMs > 0) {
		return false, fmt.Errorf("%w: rtt bound %g ms", core.ErrBadModel, req.BoundMs)
	}
	res, cached, err := s.engine.Dimension(sc, req.BoundMs)
	if err != nil {
		return false, err
	}
	w.Header().Set(CacheHeader, hitOrMiss(cached))
	writeJSON(w, http.StatusOK, res)
	return cached, nil
}

// ModelInfo is the wire form of one built-in traffic model.
type ModelInfo struct {
	Name   string   `json:"name"`
	Source string   `json:"source"`
	Notes  string   `json:"notes"`
	Server FlowInfo `json:"server"`
	// OfferedDownKbit12 is the downstream bit rate offered by a 12-player
	// server, the README's comparison figure.
	OfferedDownKbit12 float64    `json:"offered_down_kbit_12"`
	Clients           []FlowInfo `json:"clients"`
}

// FlowInfo summarizes one flow law by its moments (the laws themselves are
// distributions, not JSON values).
type FlowInfo struct {
	Name          string  `json:"name,omitempty"`
	MeanSizeBytes float64 `json:"mean_size_bytes"`
	MeanIATMs     float64 `json:"mean_iat_ms"`
}

// ModelsResult answers /v1/models.
type ModelsResult struct {
	Models []ModelInfo `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) (bool, error) {
	models := traffic.AllModels()
	out := make([]ModelInfo, len(models))
	for i, m := range models {
		info := ModelInfo{
			Name:   m.Name,
			Source: m.Source,
			Notes:  m.Notes,
			Server: FlowInfo{
				MeanSizeBytes: m.Server.PacketSize.Mean(),
				MeanIATMs:     1000 * m.Server.IAT.Mean(),
			},
			OfferedDownKbit12: m.OfferedDownstreamBitRate(12) / 1000,
		}
		for _, f := range m.Client {
			info.Clients = append(info.Clients, FlowInfo{
				Name:          f.Name,
				MeanSizeBytes: f.Size.Mean(),
				MeanIATMs:     1000 * f.IAT.Mean(),
			})
		}
		out[i] = info
	}
	writeJSON(w, http.StatusOK, ModelsResult{Models: out})
	return false, nil
}

// handleCacheDump streams a snapshot of the memo cache (see memo.Dump for
// the wire format). The snapshot is buffered before the first byte hits the
// wire so an encoding failure can still surface as a 500 instead of a
// truncated 200.
func (s *Server) handleCacheDump(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "use GET"})
		return
	}
	var buf bytes.Buffer
	st, err := s.engine.DumpCache(&buf)
	if err != nil {
		writeJSON(w, errStatus(err), apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set("X-Fpsping-Snapshot-Entries", strconv.Itoa(st.Entries))
	w.Write(buf.Bytes())
}

// WarmResult answers /v1/cache:warm: what the restore did, plus the cache
// occupancy after it.
type WarmResult struct {
	Restored        int `json:"restored"`
	SkippedExisting int `json:"skipped_existing"`
	SkippedFull     int `json:"skipped_full"`
	CacheEntries    int `json:"cache_entries"`
}

// handleCacheWarm restores an uploaded snapshot under never-clobber
// semantics: live entries win, a full cache skips rather than evicts, and a
// corrupt or schema-mismatched snapshot is rejected whole (400) with the
// cache untouched.
func (s *Server) handleCacheWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "use POST"})
		return
	}
	defer r.Body.Close()
	st, err := s.engine.WarmCache(io.LimitReader(r.Body, maxSnapshotBody))
	if err != nil {
		writeJSON(w, errStatus(err), apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, WarmResult{
		Restored:        st.Restored,
		SkippedExisting: st.SkippedExisting,
		SkippedFull:     st.SkippedFull,
		CacheEntries:    s.engine.CacheStats().Entries,
	})
}

// Health answers /healthz: liveness plus the cache and compute counters
// that tell an operator (or load generator) how hard the engine is working.
type Health struct {
	Status string `json:"status"`
	// Ready is true while the server accepts new work; false once BeginDrain
	// has been called. A draining server still answers 200 so pollers can
	// tell it apart from a dead one.
	Ready bool `json:"ready"`
	// ReadyGeneration increments on every readiness transition and starts at
	// 1, so it is monotonic within a process lifetime: a poller that sees the
	// generation move knows the flip is fresh, not a stale cached answer.
	ReadyGeneration uint64 `json:"ready_generation"`
	Jobs            int    `json:"jobs"`
	CacheEntries    int    `json:"cache_entries"`
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	// CacheEvictions counts entries dropped to capacity pressure.
	CacheEvictions uint64 `json:"cache_evictions"`
	// Computations counts core model evaluations actually run: one per cold
	// RTT, one per cold sweep or dimensioning probe. Singleflight
	// keeps it independent of how many clients race for the same cold
	// question — K identical concurrent requests add what one would.
	Computations uint64 `json:"computations"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.engine.CacheStats()
	status, ready := "ok", true
	if s.draining.Load() {
		status, ready = "draining", false
	}
	writeJSON(w, http.StatusOK, Health{
		Status:          status,
		Ready:           ready,
		ReadyGeneration: s.readyGen.Load(),
		Jobs:            s.engine.Jobs(),
		CacheEntries:    st.Entries,
		CacheHits:       st.Hits,
		CacheMisses:     st.Misses,
		CacheEvictions:  st.Evictions,
		Computations:    s.engine.Computes(),
	})
}

// handleMetrics renders the request families and the engine cache's. Cache
// lookup hits and misses count probes (joiners of an in-flight computation
// count as misses); fpsping_cache_hits_total counts requests answered
// without computing.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p metrics.Page
	s.engine.Metrics().Collect(&p)
	st := s.engine.CacheStats()
	p.Add(metrics.CacheEntries, "", st.Entries)
	p.Add(metrics.CacheLookupHits, "", st.Hits)
	p.Add(metrics.CacheLookupMisses, "", st.Misses)
	p.Add(metrics.CacheEvictions, "", st.Evictions)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, p.String())
}

func hitOrMiss(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}
