package server

import (
	"sync"
	"time"

	"repro/internal/wire"
)

// Metrics accumulates per-endpoint request counts, latency summaries, and
// elements-touched counters. One registry serves the whole server;
// /metrics renders it as JSON, next to the per-plan-kind counts summed
// from each relation's own registry.
type Metrics struct {
	start time.Time

	mu  sync.Mutex
	eps map[string]*endpointStats
}

type endpointStats struct {
	requests uint64
	errors   uint64
	touched  uint64
	latTotal time.Duration
	latMin   time.Duration
	latMax   time.Duration
}

// NewMetrics returns an empty registry anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{
		start: time.Now(),
		eps:   make(map[string]*endpointStats),
	}
}

// Record accounts one request against the named endpoint.
func (m *Metrics) Record(endpoint string, d time.Duration, touched int, isErr bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep, ok := m.eps[endpoint]
	if !ok {
		ep = &endpointStats{latMin: d}
		m.eps[endpoint] = ep
	}
	ep.requests++
	if isErr {
		ep.errors++
	}
	if touched > 0 {
		ep.touched += uint64(touched)
	}
	ep.latTotal += d
	if d < ep.latMin {
		ep.latMin = d
	}
	if d > ep.latMax {
		ep.latMax = d
	}
}

// Report renders the registry for the /metrics endpoint.
func (m *Metrics) Report() wire.MetricsResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := wire.MetricsResponse{
		UptimeSeconds: int64(time.Since(m.start) / time.Second),
		Endpoints:     make(map[string]wire.EndpointMetrics, len(m.eps)),
	}
	for name, ep := range m.eps {
		em := wire.EndpointMetrics{
			Requests:  ep.requests,
			Errors:    ep.errors,
			Touched:   ep.touched,
			LatencyUS: ep.latTotal.Microseconds(),
			MinUS:     ep.latMin.Microseconds(),
			MaxUS:     ep.latMax.Microseconds(),
		}
		if ep.requests > 0 {
			em.MeanUS = (ep.latTotal / time.Duration(ep.requests)).Microseconds()
		}
		out.Endpoints[name] = em
		out.Requests += ep.requests
		out.Errors += ep.errors
	}
	return out
}
