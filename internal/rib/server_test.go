package rib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestServerSubscribeStream(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(5, 2))
	ts := httptest.NewServer(NewServer(r).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/subscribe?path=/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	next := func() Batch {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var b Batch
		if err := json.Unmarshal(sc.Bytes(), &b); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		return b
	}

	rep := NewReplayer()
	first := next()
	if first.Type != SyncBatch {
		t.Fatalf("first batch %s, want sync", first.Type)
	}
	if err := rep.Apply(first); err != nil {
		t.Fatal(err)
	}
	r.Install(lineDB(5, 0))
	if err := rep.Apply(next()); err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Canonical("/"), r.Current().Canonical("/"); !bytes.Equal(got, want) {
		t.Errorf("HTTP-replayed state diverged:\n%s\nwant:\n%s", got, want)
	}
}

func TestServerSnapshotStatsHealth(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(4, 0))
	ts := httptest.NewServer(NewServer(r).Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	code, body := get("/snapshot?path=" + PathFIB)
	if code != http.StatusOK || !bytes.Equal(body, r.Current().Canonical(PathFIB)) {
		t.Errorf("snapshot endpoint: code %d, body mismatch %v", code,
			!bytes.Equal(body, r.Current().Canonical(PathFIB)))
	}

	code, body = get("/stats")
	var st Stats
	if code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Gen != 1 || st.Installs != 1 {
		t.Errorf("stats %+v", st)
	}

	code, body = get("/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Errorf("healthz code %d body %s", code, body)
	}

	if code, _ := get("/subscribe?path=oops"); code != http.StatusBadRequest {
		t.Errorf("relative path accepted with code %d", code)
	}
	if code, _ := get("/snapshot?path=oops"); code != http.StatusBadRequest {
		t.Errorf("relative snapshot path accepted with code %d", code)
	}
}

// N HTTP subscribers on one path receive byte-identical lines — the line
// json.Encoder.Encode writes for the batch an in-process subscriber on
// that path gets — and each line is encoded once, not once per
// connection.
func TestServerEncodesOncePerPrefix(t *testing.T) {
	const clients = 8
	r := New(Config{})
	r.Install(lineDB(6, 3))
	ts := httptest.NewServer(NewServer(r).Handler())
	defer ts.Close()

	inproc := r.Subscribe(PathTopology)
	defer inproc.Close()
	readers := make([]*bufio.Reader, clients)
	for i := range readers {
		resp, err := http.Get(ts.URL + "/subscribe?path=" + PathTopology)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		readers[i] = bufio.NewReader(resp.Body)
	}
	// One line from every client per generation: the sync they all
	// attached at, then two deltas.
	for gen := 1; gen <= 3; gen++ {
		if gen > 1 {
			r.Install(lineDB(6, 3-gen))
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(<-inproc.Updates()); err != nil {
			t.Fatal(err)
		}
		for i, br := range readers {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("client %d, generation %d: %v", i, gen, err)
			}
			if !bytes.Equal(line, want.Bytes()) {
				t.Fatalf("client %d, generation %d: line\n%s\nwant\n%s", i, gen, line, want.Bytes())
			}
		}
		if got := r.built.lines.Load(); got != uint64(gen) {
			t.Errorf("%d lines encoded for %d generations and %d clients, want one per generation", got, gen, clients)
		}
	}
}

// The ?path= prefix is client input and a cache key: overlong paths and
// control characters are refused with the reason.
func TestServerBoundsPath(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(3, 0))
	ts := httptest.NewServer(NewServer(r).Handler())
	defer ts.Close()

	long := "/" + strings.Repeat("a", maxPathLen)
	for _, tc := range []struct {
		path, reason string
	}{
		{long, "the limit is 256"},
		{"/topology%00", "control character at byte 9"},
		{"/fib%0A/routes", "control character at byte 4"},
		{"/%7F", "control character at byte 1"},
	} {
		for _, endpoint := range []string{"/subscribe", "/snapshot"} {
			resp, err := http.Get(ts.URL + endpoint + "?path=" + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.reason) {
				t.Errorf("GET %s?path=%.20q…: code %d, body %q; want 400 naming %q", endpoint, tc.path, resp.StatusCode, body, tc.reason)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/snapshot?path=" + long[:maxPathLen])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a %d-byte path was refused with code %d", maxPathLen, resp.StatusCode)
	}
}

// TestServerSubscribeLeaksNothing holds the HTTP subscribe path to the
// rule FuzzRIBStream holds in-process subscribers to: a stream that ends
// leaves nothing behind. Three clients disconnect over a real socket —
// one before reading its sync line, one mid-stream, one after reading so
// slowly that its queue overflowed and it was resynced — and after each
// the RIB's subscriber count and the process's goroutine count return to
// their baselines.
func TestServerSubscribeLeaksNothing(t *testing.T) {
	var overflows atomic.Int64
	r := New(Config{QueueDepth: 2, OnEvent: func(kind string, _ uint64) {
		if kind == EventOverflow {
			overflows.Add(1)
		}
	}})
	full, empty := lineDB(64, 0), lineDB(64, 64)
	r.Install(full)
	ts := httptest.NewServer(NewServer(r).Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	base := runtime.NumGoroutine()

	type stream struct {
		cancel context.CancelFunc
		body   io.Closer
		sc     *bufio.Scanner
	}
	open := func() *stream {
		t.Helper()
		// The timeout turns a stream that stops short into a failure.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/subscribe?path=/", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		return &stream{cancel: cancel, body: resp.Body, sc: sc}
	}
	next := func(s *stream) Batch {
		t.Helper()
		if !s.sc.Scan() {
			t.Fatalf("stream ended early: %v", s.sc.Err())
		}
		var b Batch
		if err := json.Unmarshal(s.sc.Bytes(), &b); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		return b
	}
	disconnect := func(who string, s *stream) {
		t.Helper()
		s.cancel()
		s.body.Close()
		client.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for r.Stats().Subscribers != 0 || runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d subscribers and %d goroutines after the disconnect, want 0 and at most %d",
					who, r.Stats().Subscribers, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	install := func() {
		if r.Current().Gen%2 == 0 {
			r.Install(full)
		} else {
			r.Install(empty)
		}
	}

	disconnect("abort before sync", open())

	mid := open()
	if b := next(mid); b.Type != SyncBatch {
		t.Fatalf("first batch %s, want sync", b.Type)
	}
	install()
	install()
	for range 2 {
		if b := next(mid); b.Type != DeltaBatch {
			t.Fatalf("mid-stream batch %s, want delta", b.Type)
		}
	}
	disconnect("abort mid-stream", mid)

	// Installs outpace an unread stream until its queue overflows; the
	// reader then catches up slowly, through a resync.
	slow := open()
	last := next(slow).Gen
	deadline := time.Now().Add(10 * time.Second)
	for overflows.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("an unread stream never overflowed its queue")
		}
		install()
	}
	target := r.Current().Gen
	resynced := false
	for last < target {
		time.Sleep(100 * time.Microsecond)
		b := next(slow)
		if b.Gen <= last {
			t.Fatalf("slow reader: generation %d after %d", b.Gen, last)
		}
		last, resynced = b.Gen, resynced || b.Type == ResyncBatch
	}
	if !resynced {
		t.Error("slow reader: overflowed but never resynced")
	}
	disconnect("slow reader", slow)
}
