package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
	"repro/internal/rib"
)

// startDaemon builds and bootstraps a daemon as main does.
func startDaemon(t *testing.T, cfg experiment.DaemonConfig) *daemon {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.bootstrap(); err != nil {
		t.Fatal(err)
	}
	return d
}

// smokeRun is one serving-layer verification in progress: the finish
// line the subscribers read up to, what they must have reconstructed
// there, and where they report.
type smokeRun struct {
	d *daemon

	// targetGen, once non-zero, is the generation at which a subscriber
	// stops reading. expectedCan and expectedFP are the live state at
	// that generation, valid once expectedWait is closed.
	targetGen    atomic.Uint64
	expectedWait chan struct{}
	expectedCan  []byte
	expectedFP   uint64

	results chan error // one verdict per subscriber
	wg      sync.WaitGroup
}

// httpSubs is how many real HTTP subscribers join the in-process ones.
const httpSubs = 8

// TestDaemonSmoke proves the daemon's serving layer end to end: the
// default daemon manages its fat-tree through six churn rounds while 1000
// in-process subscribers (100 with -short) plus a set of real HTTP
// subscribers replay the diff stream concurrently; every reconstruction
// must be byte-identical to the live snapshot and fingerprint-identical to
// the FM's database, and the run must end where it always has: generation
// 14, fingerprint 0x87ffec68144fe12a.
func TestDaemonSmoke(t *testing.T) {
	subscribers := 1000
	if testing.Short() {
		subscribers = 100
	}
	const rounds = 6
	d := startDaemon(t, experiment.DefaultDaemonConfig())
	s := &smokeRun{
		d:            d,
		expectedWait: make(chan struct{}),
		results:      make(chan error, subscribers+httpSubs),
	}

	for i := 0; i < subscribers; i++ {
		s.wg.Add(1)
		go s.inProcess(i, d.rib.Subscribe("/"))
	}
	// Real HTTP subscribers exercise the wire path end to end.
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	for i := 0; i < httpSubs; i++ {
		s.wg.Add(1)
		go s.overHTTP(subscribers+i, ts.URL+"/subscribe?path=/")
	}

	// Continuous churn on this goroutine while subscribers stream; a
	// scrape per round keeps the observability plane live.
	for i := 0; i < rounds; i++ {
		d.mu.Lock()
		d.round()
		d.mu.Unlock()
		d.scrape()
	}
	d.mu.Lock()
	d.quiesce()
	d.mu.Unlock()
	s.finishLine()

	s.wg.Wait()
	close(s.results)
	failures := 0
	for err := range s.results {
		if err != nil {
			if failures++; failures <= 10 {
				t.Error(err)
			}
		}
	}
	if failures > 0 {
		t.Errorf("%d of %d subscribers failed verification", failures, subscribers+httpSubs)
	}
	d.scrape()
	st := d.rib.Stats()
	t.Logf("%q %s: %d rounds, %d generations, %d+%d subscribers, %d resyncs, fingerprint %s",
		d.cfg.Topology, d.cfg.Kind().Slug(), d.rounds, st.Gen, subscribers, httpSubs, st.Resyncs, st.Fingerprint)
	if d.rounds != rounds || st.Gen != 14 || st.Installs != 14 || st.Fingerprint != "0x87ffec68144fe12a" {
		t.Errorf("%d rounds ended at generation %d (%d installs), fingerprint %s; want generation 14, 14 installs, 0x87ffec68144fe12a",
			d.rounds, st.Gen, st.Installs, st.Fingerprint)
	}
}

// finishLine publishes the target generation, then runs one final audit
// so every subscriber receives a batch at or past the target and can
// stop reading. The audit rediscovers the identical fabric, so only the
// generation number moves — the expected values are those of that final
// generation.
func (s *smokeRun) finishLine() {
	d := s.d
	finalGen := d.rib.Current().Gen + 1
	s.targetGen.Store(finalGen)
	d.mu.Lock()
	d.audit("smoke finish line")
	d.mu.Unlock()
	cur := d.rib.Current()
	if cur.Gen != finalGen {
		// The audit installed more than once; re-target to reality.
		s.targetGen.Store(cur.Gen)
	}
	s.expectedCan = cur.Canonical("/")
	s.expectedFP = d.rig.Manager.DB().Fingerprint()
	close(s.expectedWait)
}

// replay is one subscriber: it applies batches from next until it has
// read up to the finish line, then compares its reconstruction with the
// live state there — byte-identical canonical form, and a fingerprint
// equal to core.DB.Fingerprint.
func (s *smokeRun) replay(who string, next func() (rib.Batch, error)) error {
	rep := rib.NewReplayer()
	for {
		if t := s.targetGen.Load(); t > 0 && rep.Gen() >= t {
			break
		}
		b, err := next()
		if err == nil {
			err = rep.Apply(b)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", who, err)
		}
	}
	<-s.expectedWait
	if got := rep.Canonical("/"); string(got) != string(s.expectedCan) {
		return fmt.Errorf("%s: replayed state not byte-identical at gen %d", who, rep.Gen())
	}
	fp, err := rep.Fingerprint()
	if err != nil {
		return fmt.Errorf("%s: %w", who, err)
	}
	if fp != s.expectedFP {
		return fmt.Errorf("%s: fingerprint %#x, live DB %#x", who, fp, s.expectedFP)
	}
	return nil
}

// inProcess is one in-process subscriber on the RIB's channel.
func (s *smokeRun) inProcess(id int, sub *rib.Subscription) {
	defer s.wg.Done()
	defer sub.Close()
	s.results <- s.replay(fmt.Sprintf("subscriber %d", id), func() (rib.Batch, error) {
		b, ok := <-sub.Updates()
		if !ok {
			return b, errors.New("stream closed early")
		}
		return b, nil
	})
}

// overHTTP is one subscriber on the wire, decoding the NDJSON stream of
// GET /subscribe.
func (s *smokeRun) overHTTP(id int, url string) {
	defer s.wg.Done()
	resp, err := http.Get(url)
	if err != nil {
		s.results <- err
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	s.results <- s.replay(fmt.Sprintf("http subscriber %d", id), func() (b rib.Batch, err error) {
		if !sc.Scan() {
			return b, fmt.Errorf("stream ended early: %v", sc.Err())
		}
		return b, json.Unmarshal(sc.Bytes(), &b)
	})
}
