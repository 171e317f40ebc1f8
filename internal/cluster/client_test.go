package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// instantSleep makes retry tests fast while recording requested delays.
func instantSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func newTestClient(t *testing.T, url string, delays *[]time.Duration) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		BaseURL: url,
		Timeout: 2 * time.Second,
		Backoff: 10 * time.Millisecond,
		sleep:   instantSleep(delays),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientRejectsBadBaseURL(t *testing.T) {
	for _, u := range []string{"", "coord:9400", "127.0.0.1:9400", "ftp://coord"} {
		if _, err := NewClient(ClientConfig{BaseURL: u}); err == nil {
			t.Errorf("base URL %q accepted", u)
		}
	}
	if _, err := NewClient(ClientConfig{BaseURL: "http://coord:9400"}); err != nil {
		t.Errorf("valid base URL rejected: %v", err)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(ReportResponse{Version: ProtocolVersion})
	}))
	defer srv.Close()
	var delays []time.Duration
	c := newTestClient(t, srv.URL, &delays)
	_, err := c.Report(context.Background(), validReport())
	if err != nil {
		t.Fatalf("request should succeed on the third attempt: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if len(delays) != 2 {
		t.Fatalf("client slept %d times, want 2", len(delays))
	}
	// Exponential with jitter: second delay in [2b, 3b] where the
	// first is in [b, 1.5b].
	if delays[1] < delays[0] {
		t.Errorf("backoff not growing: %v then %v", delays[0], delays[1])
	}
}

func TestClientDoesNotRetryRejections(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"cluster: protocol version 9, want 1"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	var delays []time.Duration
	c := newTestClient(t, srv.URL, &delays)
	_, err := c.Enroll(context.Background(), validEnroll())
	if err == nil {
		t.Fatal("rejected enrollment reported success")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("4xx retried: server saw %d attempts, want 1", got)
	}
}

func TestClientUnknownAgent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown"}`, http.StatusNotFound)
	}))
	defer srv.Close()
	var delays []time.Duration
	c := newTestClient(t, srv.URL, &delays)
	_, err := c.Report(context.Background(), validReport())
	if !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("404 should map to ErrUnknownAgent, got %v", err)
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	var delays []time.Duration
	c := newTestClient(t, srv.URL, &delays)
	_, err := c.Report(context.Background(), validReport())
	if err == nil {
		t.Fatal("permanently failing coordinator reported success")
	}
	if len(delays) != 3 {
		t.Errorf("client slept %d times, want 3 (MaxRetries)", len(delays))
	}
}

func TestClientCoordinatorDown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // nothing listening: every attempt is a transport error
	var delays []time.Duration
	c := newTestClient(t, url, &delays)
	_, err := c.Report(context.Background(), validReport())
	if err == nil {
		t.Fatal("dead coordinator reported success")
	}
}
