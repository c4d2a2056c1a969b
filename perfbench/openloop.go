package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fpsping/internal/cluster"
)

// workers is the generator's concurrency: one connection per worker, at
// most nproc (2) of them, so the generator never outnumbers the cores it
// shares with the servers.
const workers = 2

// Sample is one request's outcome. Times are offsets from the phase start;
// latency runs from the scheduled send time, so a stall that delays later
// sends is charged to them (no coordinated omission).
type Sample struct {
	Req     int
	Sched   time.Duration
	Send    time.Duration
	End     time.Duration
	Lag     time.Duration // timer lateness of a send that was waiting for its slot
	Waited  bool          // the worker was idle until the send was due
	Status  int
	Err     error
	Body    []byte
	Replica string
	Sent    bool
}

func (s Sample) LatencyMs() float64 { return float64(s.End-s.Sched) / 1e6 }

// Phase is one open-loop run at a fixed rate.
type Phase struct {
	Samples []Sample
	// BacklogT/BacklogN sample the outstanding (due, not completed)
	// requests over time.
	BacklogT []float64
	BacklogN []float64
}

// newClients returns one HTTP client per worker, each limited to a single
// keep-alive connection.
func newClients() []*http.Client {
	out := make([]*http.Client, workers)
	for i := range out {
		out[i] = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// send performs one request and reads the whole answer.
func send(ctx context.Context, hc *http.Client, base string, r Request) (status int, body []byte, replica string, err error) {
	var rd io.Reader
	if r.Body != nil {
		rd = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, base+r.Path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get(cluster.ReplicaHeader), err
}

// runOpenLoop sends reqs[i] at start+sched[i] over the workers' connections
// in schedule order. onDone, when set, is called with the phase's start
// time and each finished sample (for tracing).
func runOpenLoop(ctx context.Context, clients []*http.Client, base string, reqs []Request,
	sched []time.Duration, onDone func(start time.Time, s Sample)) *Phase {
	ph := &Phase{Samples: make([]Sample, len(reqs))}
	var next, completed atomic.Int64
	start := time.Now()
	due := func() int {
		el := time.Since(start)
		return sort.Search(len(sched), func(i int) bool { return sched[i] > el })
	}

	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				n := due() - int(completed.Load())
				ph.BacklogT = append(ph.BacklogT, time.Since(start).Seconds())
				ph.BacklogN = append(ph.BacklogN, float64(n))
			}
		}
	}()

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				s := Sample{Req: i, Sched: sched[i]}
				if wait := time.Until(start.Add(sched[i])); wait > 0 {
					sleep(wait)
					s.Lag, s.Waited = time.Since(start)-sched[i], true
				}
				s.Send = time.Since(start)
				s.Status, s.Body, s.Replica, s.Err = send(ctx, clients[w], base, reqs[i])
				s.End = time.Since(start)
				s.Sent = true
				ph.Samples[i] = s
				completed.Add(1)
				if onDone != nil {
					onDone(start, s)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-samplerDone
	return ph
}

// sent returns the samples that were actually sent.
func (ph *Phase) sent() []Sample {
	var out []Sample
	for _, s := range ph.Samples {
		if s.Sent {
			out = append(out, s)
		}
	}
	return out
}

// latencies returns the sorted latencies (ms) of the sent samples.
func (ph *Phase) latencies() []float64 {
	var out []float64
	for _, s := range ph.Samples {
		if s.Sent {
			out = append(out, s.LatencyMs())
		}
	}
	return sortedCopy(out)
}

// backlogTrend is the least-squares slope of the backlog, in requests per
// second.
func (ph *Phase) backlogTrend() float64 { return slope(ph.BacklogT, ph.BacklogN) }

// sendLags returns the sorted timer lateness (ms) of sends that were
// waiting for their slot: how late the generator itself ran.
func (ph *Phase) sendLags() []float64 {
	var out []float64
	for _, s := range ph.Samples {
		if s.Sent && s.Waited {
			out = append(out, float64(s.Lag)/1e6)
		}
	}
	return sortedCopy(out)
}

// sleep blocks the calling thread in nanosleep(2): the runtime timer wakes
// sleepers at millisecond granularity, which would add ~0.5 ms of generator
// lateness to every open-loop send.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only sends early
}
