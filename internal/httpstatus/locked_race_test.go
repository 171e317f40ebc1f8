package httpstatus

import (
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
)

// mutableSource mutates its state on every Tick, like the daemon loop
// does; reads that bypass the lock are data races.
type mutableSource struct {
	ticks int
	snap  []core.Status
	occ   map[string]uint64
}

func (m *mutableSource) Snapshot() []core.Status { return append([]core.Status(nil), m.snap...) }

// Occupancy returns a fresh map, matching cat.Manager.Occupancy: the
// caller keeps reading it after the lock is released.
func (m *mutableSource) Occupancy() (map[string]uint64, bool) {
	out := make(map[string]uint64, len(m.occ))
	for k, v := range m.occ {
		out[k] = v
	}
	return out, true
}

func (m *mutableSource) Ticks() int { return m.ticks }

func (m *mutableSource) tick() {
	m.ticks++
	for i := range m.snap {
		m.snap[i].Ways = 1 + (m.snap[i].Ways+1)%10
		m.snap[i].NormIPC += 0.01
	}
	m.occ["web"] += 4096
}

// TestLockedConcurrentScrapes drives concurrent /status and /metrics
// scrapes through Locked while the "daemon" ticks under the same
// mutex. Run with -race: the test exists to prove the Locked contract
// is sufficient, which is exactly how dcatd wires its status server.
func TestLockedConcurrentScrapes(t *testing.T) {
	src := &mutableSource{
		snap: []core.Status{
			{Name: "web", State: core.StateReceiver, Ways: 5, Baseline: 3},
			{Name: "batch", State: core.StateStreaming, Ways: 1, Baseline: 3},
		},
		occ: map[string]uint64{"web": 1 << 20},
	}
	var mu sync.Mutex
	srv := httptest.NewServer(Handler(Locked{
		Src: src,
		Do: func(fn func()) {
			mu.Lock()
			defer mu.Unlock()
			fn()
		},
	}))
	defer srv.Close()

	const ticks, scrapers = 200, 4
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ticks; i++ {
			mu.Lock()
			src.tick()
			mu.Unlock()
		}
	}()
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("read %s: %v", path, err)
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
				}
			}
		}([]string{"/status", "/metrics", "/status", "/healthz"}[g])
	}
	wg.Wait()
}
