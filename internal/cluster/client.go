package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// RPCMetrics instruments the coordinator client: per-attempt latency,
// retry volume, and requests that failed for good. Attach one to
// ClientConfig.Metrics; nil disables instrumentation.
type RPCMetrics struct {
	Latency  *telemetry.Histogram
	Retries  *telemetry.Counter
	Failures *telemetry.Counter
}

// NewRPCMetrics registers the client's metrics on reg.
func NewRPCMetrics(reg *telemetry.Registry) *RPCMetrics {
	return &RPCMetrics{
		Latency: reg.Histogram("dcat_cluster_rpc_seconds",
			"Coordinator RPC attempt latency, including failed attempts.",
			telemetry.RPCLatencyBuckets),
		Retries: reg.Counter("dcat_cluster_rpc_retries_total",
			"Coordinator RPC retry attempts (attempts beyond each request's first)."),
		Failures: reg.Counter("dcat_cluster_rpc_failures_total",
			"Coordinator RPCs that failed terminally or exhausted their retries."),
	}
}

// ErrUnknownAgent is returned when the coordinator does not recognize
// the caller's agent id — typically because the coordinator restarted
// and lost its registry. The agent responds by re-enrolling.
var ErrUnknownAgent = errors.New("cluster: coordinator does not know this agent")

// ClientConfig tunes the coordinator client. The zero value gets
// production-shaped defaults.
type ClientConfig struct {
	// BaseURL is the coordinator root, e.g. "http://coord:9400".
	BaseURL string
	// Timeout bounds each individual request attempt (default 2s).
	Timeout time.Duration
	// MaxRetries is how many times a failed request is retried on top
	// of the first attempt (default 3). Only transport errors and 5xx
	// responses retry; 4xx responses are terminal.
	MaxRetries int
	// Backoff is the first retry delay (default 100ms); each retry
	// doubles it up to MaxBackoff (default 2s), plus up to 50% jitter
	// so a fleet of agents does not retry in lockstep.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed drives the jitter (default 1, for reproducible tests).
	Seed int64
	// HTTPClient overrides the transport (default: http.Client with
	// Timeout). Tests inject httptest clients here.
	HTTPClient *http.Client
	// Metrics, when set, instruments every request (see RPCMetrics).
	Metrics *RPCMetrics
	// sleep overrides the retry delay for tests.
	sleep func(ctx context.Context, d time.Duration) error
}

// Client speaks the agent side of the cluster protocol.
type Client struct {
	base  string
	hc    *http.Client
	cfg   ClientConfig
	mu    sync.Mutex // guards rng
	rng   *rand.Rand
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient builds a coordinator client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("cluster: client needs a coordinator base URL")
	}
	// Catch "coord:9400" (no scheme) at construction rather than as a
	// parse failure on every request.
	if u, err := url.Parse(cfg.BaseURL); err != nil {
		return nil, fmt.Errorf("cluster: coordinator URL %q: %w", cfg.BaseURL, err)
	} else if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("cluster: coordinator URL %q must start with http:// or https://", cfg.BaseURL)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	sleep := cfg.sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return &Client{
		base:  strings.TrimRight(cfg.BaseURL, "/"),
		hc:    hc,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		sleep: sleep,
	}, nil
}

// Enroll registers the agent.
func (c *Client) Enroll(ctx context.Context, req *EnrollRequest) (*EnrollResponse, error) {
	var resp EnrollResponse
	if err := c.post(ctx, PathEnroll, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Report sends one period's statistics and returns the coordinator's
// current hints.
func (c *Client) Report(ctx context.Context, req *ReportRequest) (*ReportResponse, error) {
	var resp ReportResponse
	if err := c.post(ctx, PathReport, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Events uploads one batch of decision-trace events to the fleet
// flight recorder and returns the coordinator's cursor.
func (c *Client) Events(ctx context.Context, req *EventsRequest) (*EventsResponse, error) {
	var resp EventsResponse
	if err := c.post(ctx, PathEvents, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Placement acks executed directives and polls for pending ones.
func (c *Client) Placement(ctx context.Context, req *PlacementRequest) (*PlacementResponse, error) {
	return c.PlacementTraced(ctx, req, obs.TraceContext{})
}

// PlacementTraced is Placement carrying a causality context in the
// X-Dcat-Trace header: the trace and execution span of the most recent
// directive whose ack rides this poll. The coordinator hands it to the
// placement engine so settlement spans parent under the agent's
// execution span even when the recorder evidence has not landed yet. A
// zero context sends no header.
func (c *Client) PlacementTraced(ctx context.Context, req *PlacementRequest, trace obs.TraceContext) (*PlacementResponse, error) {
	var resp PlacementResponse
	if err := c.postTraced(ctx, PathPlacement, req, &resp, trace); err != nil {
		return nil, err
	}
	return &resp, nil
}

// post sends one JSON request with per-attempt timeouts and
// exponential-backoff retries, counting terminal failures.
func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	return c.postTraced(ctx, path, req, resp, obs.TraceContext{})
}

// postTraced is post with an optional X-Dcat-Trace header (zero
// context = no header).
func (c *Client) postTraced(ctx context.Context, path string, req, resp any, trace obs.TraceContext) error {
	err := c.doPost(ctx, path, req, resp, trace)
	if err != nil && c.cfg.Metrics != nil {
		c.cfg.Metrics.Failures.Inc()
	}
	return err
}

func (c *Client) doPost(ctx context.Context, path string, req, resp any, trace obs.TraceContext) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("cluster: encoding request: %w", err)
	}
	var lastErr error
	delay := c.cfg.Backoff
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if c.cfg.Metrics != nil {
				c.cfg.Metrics.Retries.Inc()
			}
			if err := c.sleep(ctx, c.jittered(delay)); err != nil {
				return err
			}
			if delay *= 2; delay > c.cfg.MaxBackoff {
				delay = c.cfg.MaxBackoff
			}
		}
		retryable, err := c.attempt(ctx, path, body, resp, trace)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("cluster: %s failed after %d attempts: %w", path, c.cfg.MaxRetries+1, lastErr)
}

// attempt runs one request; the bool reports whether a failure may be
// retried.
func (c *Client) attempt(ctx context.Context, path string, body []byte, out any, trace obs.TraceContext) (bool, error) {
	if m := c.cfg.Metrics; m != nil {
		start := time.Now()
		defer func() { m.Latency.Observe(time.Since(start).Seconds()) }()
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if !trace.Zero() {
		req.Header.Set(TraceHeader, trace.String())
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return true, err // transport error: coordinator down, DNS, timeout
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, MaxBodyBytes))
	if err != nil {
		return true, err
	}
	switch {
	case res.StatusCode == http.StatusOK:
		if err := json.Unmarshal(data, out); err != nil {
			return false, fmt.Errorf("cluster: decoding %s response: %w", path, err)
		}
		return false, nil
	case res.StatusCode == http.StatusNotFound:
		return false, ErrUnknownAgent
	case res.StatusCode >= 500:
		return true, fmt.Errorf("cluster: %s: coordinator returned %d: %s",
			path, res.StatusCode, errorMessage(data))
	default:
		return false, fmt.Errorf("cluster: %s: coordinator rejected request (%d): %s",
			path, res.StatusCode, errorMessage(data))
	}
}

// jittered adds up to 50% random slack to a retry delay.
func (c *Client) jittered(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		return d
	}
	return d + time.Duration(c.rng.Int63n(int64(d)/2+1))
}

// errorMessage extracts the error envelope from a response body.
func errorMessage(data []byte) string {
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error != "" {
		return eb.Error
	}
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200]
	}
	if s == "" {
		s = "(no body)"
	}
	return s
}
