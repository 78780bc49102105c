package rib

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// heapInuse returns the live heap after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestSubscribeCyclesHeapBound holds the serving side to a heap bound
// over many subscriber lifetimes: a reader connects, stalls until its
// queue overflows, and disconnects, in process and over HTTP through
// Server. At QueueDepth 1 an overflow costs two installs past a stalled
// sync. Whatever a cycle allocates (the subscription, its pump, the
// resync's views, the HTTP connection) must be collectable once the
// reader is gone, so the live heap after the cycles stays within
// heapBound (1 MiB) of where it was before them. On a 2-core x86-64
// host 14 runs of 500 + 500 cycles (about 2 500-3 100 installs each) moved the
// heap by -168 KiB to +280 KiB; a Close that leaves the pump running
// grows it by 5.6 MiB.
func TestSubscribeCyclesHeapBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state dominates the heap")
	}
	const (
		cycles    = 500 // of each kind
		heapBound = 1 << 20
	)
	var overflows atomic.Int64
	r := New(Config{QueueDepth: 1, OnEvent: func(kind string, _ uint64) {
		if kind == EventOverflow {
			overflows.Add(1)
		}
	}})
	full, empty := lineDB(16, 0), lineDB(16, 16)
	install := func() {
		if r.Current().Gen%2 == 0 {
			r.Install(full)
		} else {
			r.Install(empty)
		}
	}
	install()
	ts := httptest.NewServer(NewServer(r).Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for r.Stats().Subscribers != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d subscribers left after a disconnect", r.Stats().Subscribers)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	inProcess := func() {
		// The pump blocks delivering the sync nobody reads: the first
		// install queues, the second overflows.
		sub := r.Subscribe("/")
		install()
		install()
		sub.Close()
	}
	overHTTP := func() {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/subscribe?path=/", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// The stream is never read. Installs outpace the handler until
		// its queue overflows.
		deadline := time.Now().Add(5 * time.Second)
		for before := overflows.Load(); overflows.Load() == before; {
			if time.Now().After(deadline) {
				t.Fatal("an unread stream never overflowed its queue")
			}
			install()
		}
		cancel()
		resp.Body.Close()
		client.CloseIdleConnections()
		settle()
	}

	for range 20 { // warm the pools, the views cache and the transport
		inProcess()
		overHTTP()
	}
	settle()
	before, overflowsBefore := heapInuse(), overflows.Load()
	installsBefore := r.Stats().Installs
	for range cycles {
		inProcess()
	}
	settle()
	if got := overflows.Load() - overflowsBefore; got != cycles {
		t.Fatalf("%d overflows in %d in-process cycles, want one each", got, cycles)
	}
	for range cycles {
		overHTTP()
	}
	after := heapInuse()
	growth := int64(after) - int64(before)
	t.Logf("heap in use %d -> %d B (%+d) over %d in-process and %d HTTP cycles, %d installs",
		before, after, growth, cycles, cycles, r.Stats().Installs-installsBefore)
	if growth > heapBound {
		t.Errorf("heap grew %d B over the cycles, bound %d B: something a disconnected subscriber held stays reachable", growth, heapBound)
	}
}
