package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"fpsping/internal/service"
)

// healthSum is the sum of the replicas' /healthz counters.
type healthSum struct {
	Hits, Misses, Evictions, Computations uint64
}

func (d *Deployment) health(ctx context.Context) (healthSum, error) {
	var sum healthSum
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, r := range d.Replicas {
		req, err := http.NewRequestWithContext(ctx, "GET", r+"/healthz", nil)
		if err != nil {
			return sum, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return sum, err
		}
		var h service.Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("%s/healthz: %w", r, err)
		}
		sum.Hits += h.CacheHits
		sum.Misses += h.CacheMisses
		sum.Evictions += h.CacheEvictions
		sum.Computations += h.Computations
	}
	return sum, nil
}

func (h healthSum) minus(o healthSum) healthSum {
	return healthSum{h.Hits - o.Hits, h.Misses - o.Misses, h.Evictions - o.Evictions, h.Computations - o.Computations}
}
