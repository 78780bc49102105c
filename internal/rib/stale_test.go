package rib

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settledStats returns r.Stats() once settled holds, or the last reading
// after a bounded wait. The pump stamps a batch as delivered just after
// the channel hand-off, so a test that has only just received from
// Updates() may read Stats() a moment before the stamp lands; the caller
// still asserts on what comes back.
func settledStats(r *RIB, settled func(Stats) bool) Stats {
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := r.Stats()
		if settled(s) || time.Now().After(deadline) {
			return s
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// A reader that consumes promptly lags zero generations; one that never
// reads its stream lags the full distance to the current generation.
// Deliveries and the deliver-latency histogram count a batch the same
// whichever path brought it: the pump's, to a reader that was busy when
// the generation was published, or the installer's own hand-off, to a
// reader already waiting.
func TestStalenessLagAccounting(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(4, 0))

	// Read by the installing goroutine, so never waiting at an install:
	// every delta goes through the pump.
	pumped := r.Subscribe("/")
	defer pumped.Close()
	<-pumped.Updates() // consume the initial sync

	// Read by a goroutine parked on the channel at every install: every
	// delta is handed over by the installer.
	direct := r.Subscribe("/")
	defer direct.Close()
	rd := startReader(direct.Updates())
	<-rd.got
	waitIdle(t, direct)

	stalled := r.Subscribe("/") // never read
	defer stalled.Close()

	const installs = 3
	for i := 1; i <= installs; i++ {
		rd.waitParked(t)
		r.Install(lineDB(4, i))
		// Keep both readers fresh.
		<-rd.got
		<-pumped.Updates()
	}

	const consumed = 2 * (1 + installs) // two readers, a sync and three deltas each
	s := settledStats(r, func(s Stats) bool {
		return s.Staleness.P50 == 0 && s.Deliveries == consumed && s.DeliverLatency.Count == consumed
	})
	if s.Staleness.Subscribers != 3 {
		t.Fatalf("staleness population %d, want 3", s.Staleness.Subscribers)
	}
	if s.Staleness.P50 != 0 {
		t.Errorf("p50 lag %d, want 0 (both readers consumed gen %d)", s.Staleness.P50, s.Gen)
	}
	for name, sub := range map[string]*Subscription{"pumped": pumped, "direct": direct} {
		if d := sub.delivered.Load(); d != s.Gen {
			t.Errorf("%s reader: delivered generation %d at quiescence, want %d", name, d, s.Gen)
		}
	}
	if pumped.wakes.Load() == 0 {
		t.Error("the installing goroutine's own reader was never served by its pump")
	}
	if w := direct.wakes.Load(); w != 0 {
		t.Errorf("waiting reader's pump woke %d times, want 0", w)
	}
	// The stalled reader consumed nothing: max lag is the full current
	// generation. (Its pump holds the sync batch it cannot deliver.)
	if s.Staleness.Max != s.Gen {
		t.Errorf("max lag %d, want %d", s.Staleness.Max, s.Gen)
	}
	if s.Staleness.P99 != s.Staleness.Max {
		t.Errorf("p99 lag %d, want %d with 3 subscribers", s.Staleness.P99, s.Staleness.Max)
	}
	if s.Deliveries != consumed || s.DeliverLatency.Count != consumed {
		t.Errorf("deliver accounting: %d deliveries, %d latency observations, want %d of each",
			s.Deliveries, s.DeliverLatency.Count, consumed)
	}
	if s.DeliverP99NS < s.DeliverP50NS || s.DeliverP50NS < 0 {
		t.Errorf("latency quantiles inconsistent: p50 %v p99 %v", s.DeliverP50NS, s.DeliverP99NS)
	}
}

// Across the overflow→resync path the lag accounting must recover: once
// the stalled reader drains to the resync'd current state its lag
// returns to zero, and the overflow/resync events fire with generations.
func TestStalenessAcrossOverflowResync(t *testing.T) {
	var overflows, resyncs atomic.Uint64
	r := New(Config{QueueDepth: 2, OnEvent: func(kind string, gen uint64) {
		switch kind {
		case EventOverflow:
			overflows.Add(1)
		case EventResync:
			resyncs.Add(1)
		default:
			t.Errorf("unknown event kind %q", kind)
		}
		if gen == 0 {
			t.Errorf("event %q carried generation 0", kind)
		}
	}})
	r.Install(lineDB(6, 0))
	sub := r.Subscribe("/")
	defer sub.Close()

	for i := 0; i < 20; i++ {
		r.Install(lineDB(6, i%5))
	}
	if s := r.Stats(); s.Staleness.Max == 0 {
		t.Errorf("stalled subscriber shows zero lag at gen %d", s.Gen)
	}
	if overflows.Load() == 0 {
		t.Error("no overflow event fired")
	}

	// Drain to the current generation: the resync supersedes the backlog.
	for b := range sub.Updates() {
		if b.Gen == r.Current().Gen {
			break
		}
	}
	if resyncs.Load() == 0 {
		t.Error("no resync event fired")
	}
	if s := settledStats(r, func(s Stats) bool { return s.Staleness.Max == 0 }); s.Staleness.Max != 0 {
		t.Errorf("drained subscriber still lags %d generations", s.Staleness.Max)
	}
}

// /stats and /healthz must stay consistent and race-free while installs
// and subscribers churn concurrently (the race detector is the judge).
func TestServerStatsHealthUnderConcurrentInstalls(t *testing.T) {
	r := New(Config{QueueDepth: 4})
	r.Install(lineDB(8, 0))
	ts := httptest.NewServer(NewServer(r).Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Installer: continuous churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Install(lineDB(8, i%6))
		}
		close(stop)
	}()

	// Subscribers that consume at different paces, plus one that stalls.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(consume bool) {
			defer wg.Done()
			sub := r.Subscribe("/")
			defer sub.Close()
			if !consume {
				<-stop
				return
			}
			for {
				select {
				case <-sub.Updates():
				case <-stop:
					return
				}
			}
		}(i%2 == 0)
	}

	// Readers hammering the observability endpoints throughout.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var s Stats
				if err := json.Unmarshal(body, &s); err != nil {
					t.Errorf("stats did not parse: %v", err)
					return
				}
				if s.Staleness.Max < s.Staleness.P99 || s.Staleness.P99 < s.Staleness.P50 {
					t.Errorf("staleness percentiles out of order: %+v", s.Staleness)
					return
				}
				if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	if s := r.Stats(); s.Gen != 51 {
		t.Errorf("final generation %d, want 51", s.Gen)
	}
}

// Extra handlers mount onto the server mux without disturbing the
// built-in routes.
func TestServerHandleExtraMount(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(3, 0))
	srv := NewServer(r)
	srv.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("metrics here\n"))
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "metrics here\n" {
		t.Errorf("extra mount served %q", body)
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("built-in route broken: %v %v", err, resp)
	}
	resp.Body.Close()
}
