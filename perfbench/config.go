package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed workloads.json
var configJSON []byte

// Workload is one traffic mix with its deployment, fixed in workloads.json.
type Workload struct {
	Name        string   `json:"name"`
	Deployment  string   `json:"deployment"` // "direct" or "routed"
	DaemonFlags []string `json:"daemon_flags"`
	RouterFlags []string `json:"router_flags"`
	NominalRPS  float64  `json:"nominal_rps"`
	Pool        Pool     `json:"pool"`
	Mix         Mix      `json:"mix"`
}

// Pool sizes the Zipf workloads' scenario pool.
type Pool struct {
	RTT       int     `json:"rtt"`
	Sweep     int     `json:"sweep"`
	Dimension int     `json:"dimension"`
	BatchSize int     `json:"batch_size"`
	ZipfS     float64 `json:"zipf_s"`
}

// Mix is the share of requests per endpoint.
type Mix struct {
	RTT       float64 `json:"rtt"`
	Batch     float64 `json:"batch"`
	Sweep     float64 `json:"sweep"`
	Dimension float64 `json:"dimension"`
	Models    float64 `json:"models"`
}

// config is the part of workloads.json the benchmark reads; the rest
// (held-out seed, layer map) is for people choosing what to measure.
type config struct {
	Workloads []Workload `json:"workloads"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("workloads.json: %w", err)
	}
	return c, nil
}

func (c config) workload(name string) (Workload, error) {
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}
