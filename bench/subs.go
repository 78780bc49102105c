package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rib"
)

// reader is one subscriber: a goroutine that folds its batch stream into
// a Replayer. The driver learns of progress through gen (atomic) and the
// set's notify channel, never by polling.
type reader struct {
	track  int // trace track; 0 is the driver
	prefix string
	http   bool
	rep    *rib.Replayer

	gen       atomic.Uint64 // generation of the last applied batch
	appliedAt atomic.Int64  // wall ns (since the set's epoch) of that apply
	batches   atomic.Int64
	updates   atomic.Int64 // leaf updates received

	// Owned by the reader goroutine; the driver reads them after stop.
	err     error
	bytes   int64         // HTTP: NDJSON bytes received
	ttfb    time.Duration // HTTP: request sent to sync line applied
	applyNS []float64     // traced runs: every Replayer.Apply duration
}

// readerSet is every subscriber of one rig.
type readerSet struct {
	rib    *rib.RIB
	tr     *tracer
	epoch  time.Time
	waited []*reader // the driver waits for these each round
	gated  *reader   // reads in bursts; excluded from the round wait

	target atomic.Uint64
	notify chan struct{} // capacity 1: one token covers any number of applies
	done   chan struct{}
	open   chan struct{} // capacity 1: lets the gated reader drain once
	wg     sync.WaitGroup

	// Set by the driver for reader spans: the round span and its op.
	roundSpan, op atomic.Int64
	applyErrs     atomic.Int64 // Replayer.Apply errors over all readers

	subs    []*rib.Subscription
	cancel  context.CancelFunc
	srv     *http.Server
	srvDone chan error
	addr    string

	readyIn time.Duration // Subscribe of the first reader to all synced
}

// spanTracks is how many reader goroutines record spans; every reader
// records its apply durations.
const spanTracks = 4

type subSpec struct {
	inproc   int      // in-process subscribers, prefixes cycled
	prefixes []string // cycled over the in-process subscribers
	http     int      // HTTP /subscribe?path=/ clients on loopback
	gated    bool     // one subscriber that reads only in bursts
}

// attach subscribes every reader and returns once each has applied its
// initial sync.
func attach(r *rib.RIB, spec subSpec, tr *tracer) (*readerSet, error) {
	rs := &readerSet{
		rib: r, tr: tr, epoch: time.Now(),
		notify: make(chan struct{}, 1), done: make(chan struct{}), open: make(chan struct{}, 1),
	}
	t0 := time.Now()
	track := 1
	for i := 0; i < spec.inproc; i++ {
		rd := &reader{track: track, prefix: spec.prefixes[i%len(spec.prefixes)], rep: rib.NewReplayer()}
		track++
		sub := r.Subscribe(rd.prefix)
		rs.subs = append(rs.subs, sub)
		rs.waited = append(rs.waited, rd)
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			for b := range sub.Updates() {
				rs.apply(rd, b)
			}
		}()
	}
	if spec.http > 0 {
		if err := rs.serve(spec.http, &track); err != nil {
			rs.stop()
			return nil, err
		}
	}
	if spec.gated {
		rd := &reader{track: track, prefix: "/", rep: rib.NewReplayer()}
		sub := r.Subscribe("/")
		rs.subs = append(rs.subs, sub)
		rs.gated = rd
		rs.wg.Add(1)
		go rs.runGated(rd, sub)
	}
	if !rs.wait(r.Current().Gen, true) {
		rs.stop()
		return nil, fmt.Errorf("bench: subscribers did not sync within %v: %v", opTimeout, rs.firstErr())
	}
	rs.readyIn = time.Since(t0)
	return rs, nil
}

// apply folds one batch into a reader and tells the driver.
func (rs *readerSet) apply(rd *reader, b rib.Batch) {
	traced := rs.tr.active()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	err := rd.rep.Apply(b)
	now := time.Now()
	if traced {
		rd.applyNS = append(rd.applyNS, float64(now.Sub(t0).Nanoseconds()))
		if rd.track <= spanTracks || rd.http {
			rs.tr.record(rd.track, rs.roundSpan.Load(), rs.op.Load(), "rib.apply", t0, now)
		}
	}
	if err != nil {
		rs.applyErrs.Add(1)
		if rd.err == nil {
			rd.err = err
		}
	}
	rd.updates.Add(int64(len(b.Updates)))
	rd.batches.Add(1)
	rd.appliedAt.Store(now.Sub(rs.epoch).Nanoseconds())
	rd.gen.Store(b.Gen)
	if b.Gen >= rs.target.Load() {
		select {
		case rs.notify <- struct{}{}:
		default:
		}
	}
}

// runGated reads nothing until the driver opens the gate, then drains to
// the current generation and closes again: a deterministic stalled reader
// whose queue overflows and is resynced.
func (rs *readerSet) runGated(rd *reader, sub *rib.Subscription) {
	defer rs.wg.Done()
	for {
		for rd.batches.Load() == 0 || rd.gen.Load() < rs.rib.Current().Gen {
			b, ok := <-sub.Updates()
			if !ok {
				return
			}
			rs.apply(rd, b)
		}
		select {
		case <-rs.open:
		case <-rs.done:
			return
		}
	}
}

// openGate lets the gated reader drain once.
func (rs *readerSet) openGate() {
	select {
	case rs.open <- struct{}{}:
	default:
	}
}

// serve starts the RIB's HTTP server on loopback and n streaming clients.
func (rs *readerSet) serve(n int, track *int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rs.addr = ln.Addr().String()
	rs.srv = &http.Server{Handler: rib.NewServer(rs.rib).Handler()}
	rs.srvDone = make(chan error, 1)
	go func() { rs.srvDone <- rs.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	rs.cancel = cancel
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU()}}
	for i := 0; i < n; i++ {
		rd := &reader{track: *track, prefix: "/", http: true, rep: rib.NewReplayer()}
		*track++
		rs.waited = append(rs.waited, rd)
		rs.wg.Add(1)
		go rs.runHTTP(ctx, client, rd)
	}
	return nil
}

// runHTTP is one real HTTP subscriber: NDJSON lines decoded and replayed.
func (rs *readerSet) runHTTP(ctx context.Context, client *http.Client, rd *reader) {
	defer rs.wg.Done()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+rs.addr+"/subscribe?path=/", nil)
	if err != nil {
		rd.err = err
		return
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		rd.err = err
		return
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if ctx.Err() == nil && rd.err == nil {
				rd.err = fmt.Errorf("http subscriber: stream ended: %w", err)
			}
			return
		}
		var b rib.Batch
		if err := json.Unmarshal(line, &b); err != nil {
			rd.err = fmt.Errorf("http subscriber: %w", err)
			return
		}
		rd.bytes += int64(len(line))
		rs.apply(rd, b)
		if rd.ttfb == 0 {
			rd.ttfb = time.Since(t0)
		}
	}
}

// wait blocks until every waited reader (and, with all set, the gated
// one) has applied generation target, or opTimeout passes.
func (rs *readerSet) wait(target uint64, all bool) bool {
	rs.target.Store(target)
	next := 0
	reached := func() bool {
		for ; next < len(rs.waited); next++ {
			if rs.waited[next].gen.Load() < target {
				return false
			}
		}
		return !all || rs.gated == nil || rs.gated.gen.Load() >= target
	}
	if reached() {
		return true
	}
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	for {
		select {
		case <-rs.notify:
			if reached() {
				return true
			}
		case <-timeout.C:
			return false
		}
	}
}

// slowestHTTP returns when the last HTTP reader applied its latest batch.
func (rs *readerSet) slowestHTTP() (at time.Time, ok bool) {
	var latest int64
	for _, rd := range rs.waited {
		if rd.http {
			latest, ok = max(latest, rd.appliedAt.Load()), true
		}
	}
	return rs.epoch.Add(time.Duration(latest)), ok
}

// deliveries is the number of batches applied by all readers so far.
func (rs *readerSet) deliveries() int64 {
	var n int64
	for _, rd := range rs.waited {
		n += rd.batches.Load()
	}
	if rs.gated != nil {
		n += rs.gated.batches.Load()
	}
	return n
}

// stop ends every reader goroutine and the HTTP server and waits for
// them; the readers' own fields may be read afterwards.
func (rs *readerSet) stop() {
	close(rs.done)
	for _, s := range rs.subs {
		s.Close()
	}
	if rs.cancel != nil {
		rs.cancel()
	}
	rs.wg.Wait()
	if rs.srv != nil {
		rs.srv.Close()
		<-rs.srvDone
	}
}

func (rs *readerSet) every() []*reader {
	if rs.gated == nil {
		return rs.waited
	}
	return append(append([]*reader(nil), rs.waited...), rs.gated)
}

// firstErr returns the first reader error. Call after stop, or when the
// run is being abandoned anyway.
func (rs *readerSet) firstErr() error {
	for _, rd := range rs.every() {
		if rd.err != nil {
			return rd.err
		}
	}
	return nil
}

// verify checks, after stop, that every reader reconstructed exactly the
// served state: canonical bytes under its prefix equal to the live
// snapshot's, and for readers holding the whole tree the fingerprint of
// the manager's database.
func (rs *readerSet) verify(wantFP uint64) error {
	cur := rs.rib.Current()
	canon := map[string]string{}
	for i, rd := range rs.every() {
		if rd.err != nil {
			return fmt.Errorf("subscriber %d: %w", i, rd.err)
		}
		want, ok := canon[rd.prefix]
		if !ok {
			want = string(cur.Canonical(rd.prefix))
			canon[rd.prefix] = want
		}
		if got := string(rd.rep.Canonical(rd.prefix)); got != want {
			return fmt.Errorf("subscriber %d (%s): replayed state differs from the live snapshot at gen %d (reader at %d)",
				i, rd.prefix, cur.Gen, rd.rep.Gen())
		}
		if rd.prefix != "/" {
			continue
		}
		fp, err := rd.rep.Fingerprint()
		if err != nil {
			return fmt.Errorf("subscriber %d: %w", i, err)
		}
		if fp != wantFP {
			return fmt.Errorf("subscriber %d: fingerprint %#x, manager database %#x", i, fp, wantFP)
		}
	}
	return nil
}
