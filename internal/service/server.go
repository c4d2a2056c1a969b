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
// than any scenario batch. A variable only so tests can lower it.
var maxSnapshotBody int64 = 256 << 20

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
	e := s.engine
	for path, h := range map[string]Endpoint{
		"/v1/rtt": keyed(DecodeRTT, func(q Request) (RTTResult, bool, error) { return e.RTT(q.Scenario) }),
		"/v1/sweep": keyed(DecodeSweep, func(q Request) (SweepResult, bool, error) {
			return e.Sweep(q.Scenario, q.From, q.To, q.Step)
		}),
		"/v1/dimension": keyed(DecodeDimension, func(q Request) (DimensionResult, bool, error) {
			return e.Dimension(q.Scenario, q.BoundMs)
		}),
		"/v1/rtt:batch": s.handleBatch,
		"/v1/models":    s.handleModels,
	} {
		mux.HandleFunc(path, Instrument(e.Metrics(), path, h))
	}
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

// WriteJSON marshals v compactly; the compact single-marshal path keeps
// responses byte-identical across requests, workers and cache states.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// WriteError renders err in the uniform error envelope {"error": "..."}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, apiError{Error: err.Error()})
}

// WriteAnswer renders a model answer with its CacheHeader.
func WriteAnswer(w http.ResponseWriter, v any, cached bool) {
	cache := "miss"
	if cached {
		cache = "hit"
	}
	w.Header().Set(CacheHeader, cache)
	WriteJSON(w, http.StatusOK, v)
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

// Endpoint is the body of one instrumented endpoint: it answers the request
// or returns what failed, and reports whether the engine cache answered.
type Endpoint func(w http.ResponseWriter, r *http.Request) (cached bool, err error)

// statusWriter remembers the status an endpoint answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(status int) {
	s.status = status
	s.ResponseWriter.WriteHeader(status)
}

// Instrument wraps an endpoint with the method filter, error rendering and
// rec's per-endpoint series: a request counts as failed when it is answered
// with a 4xx or 5xx status, whoever wrote it. fpspingd and fpsrouter serve
// every model endpoint through it, so both answer a bad method or a bad
// request with the same bytes and count requests alike.
func Instrument(rec *metrics.Recorder, name string, h Endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			w.Header().Set("Allow", "GET, POST")
			WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		cached, err := h(sw, r)
		if err != nil {
			WriteError(sw, errStatus(err), err)
		}
		rec.Observe(name, time.Since(start), cached, sw.status >= http.StatusBadRequest)
	}
}

// ReadBody reads a request body of at most 4 MiB (empty for a bodiless
// GET); a longer one is the client's fault.
func ReadBody(r *http.Request) ([]byte, error) { return readCapped(r, maxBodyBytes) }

// readCapped reads a request body of at most limit bytes; a longer one is a
// bad request naming the cap.
func readCapped(r *http.Request, limit int64) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("service: reading body: %w", err)
	}
	if int64(len(data)) > limit {
		return nil, badRequest(fmt.Errorf("body over %d bytes", limit))
	}
	return data, nil
}

// Request is one decoded keyed request: the scenario and the endpoint's
// own parameters, zero where the endpoint has none.
type Request struct {
	Scenario scenario.Scenario
	// From, To and Step are /v1/sweep's load grid.
	From, To, Step float64
	// BoundMs is /v1/dimension's RTT bound.
	BoundMs float64
}

// Decoder decodes one keyed endpoint's request from its query and body. A
// non-empty body is the request (strict JSON); otherwise the query is.
type Decoder func(query url.Values, body []byte) (Request, error)

// DecodeRTT decodes a /v1/rtt request: a JSON Scenario body, or scenario
// query parameters.
func DecodeRTT(query url.Values, body []byte) (Request, error) {
	var sc scenario.Scenario
	var err error
	if len(body) > 0 {
		sc, err = scenario.FromJSON(body)
	} else {
		sc, err = scenario.FromQuery(query)
	}
	return Request{Scenario: sc}, badRequest(err)
}

// SweepRequest is the /v1/sweep POST payload; an absent Scenario sweeps the
// default one.
type SweepRequest struct {
	Scenario json.RawMessage `json:"scenario"`
	From     float64         `json:"from"`
	To       float64         `json:"to"`
	Step     float64         `json:"step"`
}

// DecodeSweep decodes a /v1/sweep request: a SweepRequest body, or scenario
// query parameters plus from, to and step. The grid defaults to
// 0.05-0.90 in steps of 0.05.
func DecodeSweep(query url.Values, body []byte) (Request, error) {
	req := Request{From: 0.05, To: 0.90, Step: 0.05}
	if len(body) > 0 {
		wire := SweepRequest{From: req.From, To: req.To, Step: req.Step}
		if err := scenario.UnmarshalStrict(body, &wire); err != nil {
			return req, badRequest(fmt.Errorf("sweep body: %w", err))
		}
		sc, err := bodyScenario(wire.Scenario)
		return Request{Scenario: sc, From: wire.From, To: wire.To, Step: wire.Step}, err
	}
	sc, err := scenario.FromQuery(query, "from", "to", "step")
	if err != nil {
		return req, badRequest(err)
	}
	req.Scenario = sc
	for _, p := range []struct {
		key string
		dst *float64
	}{{"from", &req.From}, {"to", &req.To}, {"step", &req.Step}} {
		if err := queryFloat(query, p.key, p.dst); err != nil {
			return req, err
		}
	}
	return req, nil
}

// DimensionRequest is the /v1/dimension POST payload; an absent Scenario
// dimensions the default one.
type DimensionRequest struct {
	Scenario json.RawMessage `json:"scenario"`
	BoundMs  float64         `json:"bound_ms"`
}

// DecodeDimension decodes a /v1/dimension request: a DimensionRequest body,
// or scenario query parameters plus the bound. "bound" is the short query
// spelling and "bound_ms" matches the body field; either works, bound_ms
// winning when both are given. The bound defaults to 50 ms and must be
// positive.
func DecodeDimension(query url.Values, body []byte) (Request, error) {
	req := Request{BoundMs: 50}
	if len(body) > 0 {
		wire := DimensionRequest{BoundMs: req.BoundMs}
		if err := scenario.UnmarshalStrict(body, &wire); err != nil {
			return req, badRequest(fmt.Errorf("dimension body: %w", err))
		}
		sc, err := bodyScenario(wire.Scenario)
		if err != nil {
			return req, err
		}
		req.Scenario, req.BoundMs = sc, wire.BoundMs
	} else {
		sc, err := scenario.FromQuery(query, "bound", "bound_ms")
		if err != nil {
			return req, badRequest(err)
		}
		req.Scenario = sc
		for _, key := range []string{"bound", "bound_ms"} {
			if err := queryFloat(query, key, &req.BoundMs); err != nil {
				return req, err
			}
		}
	}
	if !(req.BoundMs > 0) {
		return req, fmt.Errorf("%w: rtt bound %g ms", core.ErrBadModel, req.BoundMs)
	}
	return req, nil
}

// bodyScenario decodes an envelope's "scenario" field; absent means the
// default scenario.
func bodyScenario(raw json.RawMessage) (scenario.Scenario, error) {
	if len(raw) == 0 {
		return scenario.Default(), nil
	}
	sc, err := scenario.FromJSON(raw)
	return sc, badRequest(err)
}

// queryFloat overwrites *dst with the named query parameter, when given.
func queryFloat(values url.Values, key string, dst *float64) error {
	v := values.Get(key)
	if v == "" {
		return nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return badRequest(fmt.Errorf("parameter %q: %w", key, err))
	}
	*dst = f
	return nil
}

// BatchRequest is the /v1/rtt:batch payload. Scenarios stay raw so each
// item is decoded (and each item's error attributed) individually.
type BatchRequest struct {
	Scenarios []json.RawMessage `json:"scenarios"`
}

// DecodeBatch decodes a /v1/rtt:batch body into its scenarios, in order.
func DecodeBatch(body []byte) ([]scenario.Scenario, error) {
	if len(body) == 0 {
		return nil, badRequest(errors.New("batch needs a JSON body {\"scenarios\": [...]}"))
	}
	var req BatchRequest
	if err := scenario.UnmarshalStrict(body, &req); err != nil {
		return nil, badRequest(fmt.Errorf("batch body: %w", err))
	}
	if len(req.Scenarios) == 0 {
		return nil, badRequest(errors.New("batch needs at least one scenario"))
	}
	scs := make([]scenario.Scenario, len(req.Scenarios))
	for i, raw := range req.Scenarios {
		sc, err := scenario.FromJSON(raw)
		if err != nil {
			return nil, badRequest(fmt.Errorf("scenario %d: %w", i, err))
		}
		scs[i] = sc
	}
	return scs, nil
}

// keyed is a keyed endpoint: read and decode the request, then answer it.
func keyed[T any](decode Decoder, answer func(Request) (T, bool, error)) Endpoint {
	return func(w http.ResponseWriter, r *http.Request) (bool, error) {
		body, err := ReadBody(r)
		if err != nil {
			return false, err
		}
		req, err := decode(r.URL.Query(), body)
		if err != nil {
			return false, err
		}
		res, cached, err := answer(req)
		if err != nil {
			return false, err
		}
		WriteAnswer(w, res, cached)
		return cached, nil
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (bool, error) {
	body, err := ReadBody(r)
	if err != nil {
		return false, err
	}
	scs, err := DecodeBatch(body)
	if err != nil {
		return false, err
	}
	res := s.engine.Batch(scs)
	cached := res.Cached == len(res.Results)
	WriteAnswer(w, res, cached)
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
	WriteJSON(w, http.StatusOK, ModelsResult{Models: out})
	return false, nil
}

// handleCacheDump streams a snapshot of the memo cache (see memo.Dump for
// the wire format). The snapshot is buffered before the first byte hits the
// wire so an encoding failure can still surface as a 500 instead of a
// truncated 200.
func (s *Server) handleCacheDump(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	var buf bytes.Buffer
	st, err := s.engine.DumpCache(&buf)
	if err != nil {
		WriteError(w, errStatus(err), err)
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
// corrupt, schema-mismatched or over-cap snapshot is rejected whole (400)
// with the cache untouched.
func (s *Server) handleCacheWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	data, err := readCapped(r, maxSnapshotBody)
	if err != nil {
		WriteError(w, errStatus(err), err)
		return
	}
	st, err := s.engine.WarmCache(bytes.NewReader(data))
	if err != nil {
		WriteError(w, errStatus(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, WarmResult{
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
	WriteJSON(w, http.StatusOK, Health{
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
