package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/rib"
)

// smokeRun is one `-smoke N` verification in progress: the finish line
// the subscribers read up to, what they must have reconstructed there,
// and where they report.
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

// runSmoke drives the configured churn while subscribers replay
// concurrently, then verifies every reconstruction.
func (d *daemon) runSmoke(subscribers int, jsonOut bool) error {
	rounds := d.cfg.Rounds
	if rounds == 0 {
		rounds = 6
	}
	s := &smokeRun{
		d:            d,
		expectedWait: make(chan struct{}),
		results:      make(chan error, subscribers+httpSubs),
	}

	// In-process subscribers: the ISSUE's >= 1000 concurrent readers.
	for i := 0; i < subscribers; i++ {
		s.wg.Add(1)
		go s.inProcess(i, d.rib.Subscribe("/"))
	}
	// Real HTTP subscribers exercise the wire path end to end.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go http.Serve(ln, d.handler())
	for i := 0; i < httpSubs; i++ {
		s.wg.Add(1)
		go s.overHTTP(subscribers+i, fmt.Sprintf("http://%s/subscribe?path=/", ln.Addr()))
	}

	// Continuous churn on this goroutine while subscribers stream; a
	// scrape per round keeps the observability plane live in smoke mode.
	for i := 0; i < rounds && d.ch != nil; i++ {
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
			failures++
			if failures <= 10 {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	d.scrape()
	d.printSmoke(subscribers, failures, jsonOut)
	if failures > 0 {
		return fmt.Errorf("asifmd: %d of %d subscribers failed verification", failures, subscribers+httpSubs)
	}
	return nil
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

// printSmoke prints the smoke run's one-line or JSON verdict.
func (d *daemon) printSmoke(subscribers, failures int, jsonOut bool) {
	s := d.rib.Stats()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"topology":    d.cfg.Topology,
			"algorithm":   d.cfg.Kind().Slug(),
			"regions":     d.rig.Regions(),
			"rounds":      d.rounds,
			"generations": s.Gen,
			"installs":    s.Installs,
			"subscribers": subscribers + httpSubs,
			"resyncs":     s.Resyncs,
			"fingerprint": s.Fingerprint,
			"failures":    failures,
		})
		return
	}
	fmt.Printf("asifmd smoke: %q %s: %d rounds, %d generations, %d+%d subscribers, %d resyncs, fingerprint %s: %d failures\n",
		d.cfg.Topology, d.cfg.Kind().Slug(), d.rounds, s.Gen, subscribers, httpSubs, s.Resyncs, s.Fingerprint, failures)
}
