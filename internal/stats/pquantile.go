package stats

import (
	"fmt"
	"math"
	"sort"
)

// PQuantile estimates a single quantile online with the P-squared algorithm
// (Jain & Chlamtac 1985) in O(1) memory. The simulator uses it to track RTT
// quantiles over tens of millions of packets without buffering them.
//
// For extreme quantiles (the paper's 99.999%) the estimator converges slowly;
// the simulator keeps exact top-k order statistics for those instead (see
// TopK), but PQuantile remains useful for medians and 99th percentiles.
type PQuantile struct {
	p       float64
	n       int
	heights [5]float64 // marker heights
	pos     [5]float64 // marker positions (1-based)
	want    [5]float64 // desired positions
	dn      [5]float64 // desired position increments
	initial []float64
}

// NewPQuantile returns an estimator of the p-quantile, 0 < p < 1.
func NewPQuantile(p float64) (*PQuantile, error) {
	if !(p > 0 && p < 1) {
		return nil, fmt.Errorf("stats: p-quantile level %g out of (0,1)", p)
	}
	q := &PQuantile{p: p}
	q.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q, nil
}

// Add folds one observation into the estimate.
func (q *PQuantile) Add(x float64) {
	q.n++
	if len(q.initial) < 5 {
		q.initial = append(q.initial, x)
		if len(q.initial) == 5 {
			sort.Float64s(q.initial)
			copy(q.heights[:], q.initial)
			q.pos = [5]float64{1, 2, 3, 4, 5}
			q.want = [5]float64{1, 1 + 2*q.p, 1 + 4*q.p, 3 + 2*q.p, 5}
		}
		return
	}

	// Locate the cell containing x and bump marker positions.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := range q.want {
		q.want[i] += q.dn[i]
	}

	// Adjust the three interior markers with parabolic interpolation.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

func (q *PQuantile) parabolic(i int, d float64) float64 {
	num1 := q.pos[i] - q.pos[i-1] + d
	num2 := q.pos[i+1] - q.pos[i] - d
	den := q.pos[i+1] - q.pos[i-1]
	a := (q.heights[i+1] - q.heights[i]) / (q.pos[i+1] - q.pos[i])
	b := (q.heights[i] - q.heights[i-1]) / (q.pos[i] - q.pos[i-1])
	return q.heights[i] + d/den*(num1*a+num2*b)
}

func (q *PQuantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.heights[i] + d*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current quantile estimate.
func (q *PQuantile) Value() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	if len(q.initial) < 5 {
		s := append([]float64(nil), q.initial...)
		sort.Float64s(s)
		return SortedQuantile(s, q.p)
	}
	return q.heights[2]
}

// TopK keeps the k largest observations seen so far, allowing exact deep-tail
// quantiles (e.g. the 99.999th percentile of 10^7 RTT samples needs the top
// 100 values) in O(k) memory. A binary min-heap holds the current top set.
type TopK struct {
	k    int
	n    int
	heap []float64 // min-heap of the k largest values
}

// NewTopK returns a tracker of the k largest values, k >= 1.
func NewTopK(k int) (*TopK, error) {
	if k < 1 {
		return nil, fmt.Errorf("stats: top-k needs k >= 1, got %d", k)
	}
	return &TopK{k: k, heap: make([]float64, 0, k)}, nil
}

// Add offers one observation.
func (t *TopK) Add(x float64) {
	t.n++
	if len(t.heap) < t.k {
		t.heap = append(t.heap, x)
		t.up(len(t.heap) - 1)
		return
	}
	if x <= t.heap[0] {
		return
	}
	t.heap[0] = x
	t.down(0)
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent] <= t.heap[i] {
			break
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && t.heap[l] < t.heap[smallest] {
			smallest = l
		}
		if r < n && t.heap[r] < t.heap[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		t.heap[i], t.heap[smallest] = t.heap[smallest], t.heap[i]
		i = smallest
	}
}

// Merge folds another tracker's retained values and count into t. The union
// of two top-k sets contains the top-k of the merged population, so merged
// quantile queries stay exact within the (smaller) combined retention.
func (t *TopK) Merge(o *TopK) {
	for _, v := range o.heap {
		t.n++ // Add increments n once more below via direct path
		if len(t.heap) < t.k {
			t.heap = append(t.heap, v)
			t.up(len(t.heap) - 1)
			continue
		}
		if v > t.heap[0] {
			t.heap[0] = v
			t.down(0)
		}
	}
	// Account for the observations o saw beyond its retained set.
	t.n += o.n - len(o.heap)
}

// Quantile returns the exact p-quantile provided enough of the tail is
// retained: it requires (1-p)*Count() <= k. Otherwise it returns an error.
func (t *TopK) Quantile(p float64) (float64, error) {
	if t.n == 0 {
		return 0, ErrEmpty
	}
	// Rank from the top: the p-quantile is the r-th largest value with
	// r = n - ceil(p*n) + 1.
	r := t.n - int(math.Ceil(p*float64(t.n))) + 1
	if r < 1 {
		r = 1
	}
	if r > len(t.heap) {
		return 0, fmt.Errorf("stats: top-%d holds too little tail for p=%v with n=%d", t.k, p, t.n)
	}
	s := append([]float64(nil), t.heap...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[r-1], nil
}
