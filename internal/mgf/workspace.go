package mgf

import "sync"

// Workspace holds the reusable scratch buffers behind the package's two
// allocation-heavy paths: the Appendix-A product's inner loops and the
// convolution quadrature's Simpson grids and ladder. It carries no answer
// from call to call, so it changes the cost of an evaluation, never its
// value. A zero Workspace is ready to use; buffers grow to the largest size
// seen and are reused across calls. A Workspace must not be used
// concurrently.
type Workspace struct {
	// Mul scratch: coefficient ladder, Taylor coefficients, pole powers.
	coef, taylor, powers []complex128
	// Quadrature scratch: per-grid-point density of A and tail of B. The
	// Simpson sum consumes only the real part of every grid value and
	// complex accumulation is componentwise, so the grids hold the real
	// components alone (see gridPDF).
	pdf, tail []float64
	// lad is the shared-grid quadrature ladder, tagged by a per-law
	// fingerprint: a workspace reused across laws (a load sweep, a
	// dimensioning search) rebuilds it exactly when the law changes
	// (see ladder.go).
	lad ladder
}

// cbuf returns a zeroed complex scratch slice of length n, growing buf as
// needed. The returned slice aliases the workspace buffer.
func cbuf(buf *[]complex128, n int) []complex128 {
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// fbuf is cbuf for float64 scratch.
func fbuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// wsPool recycles Workspaces for callers that do not thread their own: the
// nil-workspace forms of Mul, Sum.TailWS and Quantile borrow from here so
// one-shot calls stay allocation-cheap without every long-lived law
// retaining megabyte-scale grid buffers.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// borrowWS resolves an optional caller workspace to a usable one, reporting
// whether it must be returned to the pool afterwards.
func borrowWS(ws *Workspace) (*Workspace, bool) {
	if ws != nil {
		return ws, false
	}
	return wsPool.Get().(*Workspace), true
}

func releaseWS(ws *Workspace) { wsPool.Put(ws) }
