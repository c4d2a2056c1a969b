package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"

	"fpsping/internal/service"
)

// Reference computes expected answers in-process with the commit's own
// public API on a fresh engine, outside any timed window.
type Reference struct {
	Engine  *service.Engine
	handler http.Handler
	mu      sync.Mutex
	want    map[string]refAnswer
}

type refAnswer struct {
	status int
	body   []byte
}

func newReference() *Reference {
	eng := service.NewEngine(workers, 1<<20)
	return &Reference{
		Engine:  eng,
		handler: service.NewServer("127.0.0.1:0", eng).Handler(),
		want:    make(map[string]refAnswer),
	}
}

func reqKey(r Request) string { return r.Method + " " + r.Path + " " + string(r.Body) }

// serve runs one request through the in-process handler.
func serve(h http.Handler, r Request) (int, []byte) {
	var body *bytes.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(r.Method, r.Path, body)
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// Compute fills in the expected answer of every distinct request, spread
// over the generator's worker count.
func (ref *Reference) Compute(reqs []Request) {
	var todo []Request
	seen := make(map[string]bool)
	ref.mu.Lock()
	for _, r := range reqs {
		k := reqKey(r)
		if _, ok := ref.want[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, r)
		}
	}
	ref.mu.Unlock()
	var wg sync.WaitGroup
	jobs := make(chan Request)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				status, body := serve(ref.handler, r)
				ref.mu.Lock()
				ref.want[reqKey(r)] = refAnswer{status, body}
				ref.mu.Unlock()
			}
		}()
	}
	for _, r := range todo {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
}

// Check reports whether a response is the reference answer, bit for bit.
// A batch's "cached" count reports cache state, not an answer, so batches
// compare their results array only. A 2xx batch with a failed item is a
// failure too.
func (ref *Reference) Check(r Request, status int, body []byte) bool {
	ref.mu.Lock()
	want, ok := ref.want[reqKey(r)]
	ref.mu.Unlock()
	if !ok || status != http.StatusOK || want.status != http.StatusOK {
		return false
	}
	if r.Kind != "batch" {
		return bytes.Equal(body, want.body)
	}
	got, okGot := batchResults(body)
	exp, okExp := batchResults(want.body)
	if !okGot || !okExp || len(got) != len(exp) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], exp[i]) || bytes.Contains(got[i], []byte(`"error"`)) {
			return false
		}
	}
	return true
}

func batchResults(body []byte) ([]json.RawMessage, bool) {
	var b struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, false
	}
	return b.Results, true
}
