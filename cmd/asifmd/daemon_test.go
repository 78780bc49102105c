package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// TestStepRace drives the daemon's step loop with the coalescing partial
// FM while the observability scraper, HTTP metric readers and a RIB
// subscriber run concurrently — the configuration `go test -race
// ./cmd/asifmd` checks for data races between a step (churn,
// staleness-keyed re-audit, cursor expiry) and every reader path. It
// also pins why serve needs no debounce-flush duty: every step leaves
// the event queue empty and nothing in the debounce window.
func TestStepRace(t *testing.T) {
	d := startDaemon(t, "-topo", "8x8 mesh", "-alg", "partial", "-churn-ops", "2",
		"-audit-every", "2", "-assim-window-us", "200", "-stale-after-ms", "1")
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// The scraper goroutine, exactly as serve() runs it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.scrape()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// An HTTP reader polling every endpoint asitop reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, path := range []string{"/metrics", "/events", "/stats"} {
					if resp, err := http.Get(ts.URL + path); err == nil {
						resp.Body.Close()
					}
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// A consuming RIB subscriber replaying the diff stream.
	sub := d.rib.Subscribe("/")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range sub.Updates() {
		}
	}()

	for d.rounds < 6 {
		d.step()
		d.mu.Lock()
		events, assim := d.rig.Engine.Pending(), d.rig.Manager.AssimPending()
		d.mu.Unlock()
		if events != 0 || assim != 0 {
			t.Fatalf("round %d left %d events queued and %d reports in the debounce window", d.rounds, events, assim)
		}
	}

	close(stop)
	sub.Close()
	wg.Wait()

	// Restore and verify: after quiesce the audited database must match
	// the live ground truth.
	d.mu.Lock()
	stepAudited := d.lastAudit
	d.quiesce()
	pending := d.rig.Manager.AssimPending()
	res, ok := d.rig.Manager.LastResult()
	d.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d reports stranded in the debounce window", pending)
	}
	if !ok {
		t.Fatal("no discovery run completed")
	}
	if err := chaos.CheckConverged(d.rig.Fabric, d.rig.Manager, res); err != nil {
		t.Fatal(err)
	}
	if stepAudited == 0 {
		t.Error("no step audited (-audit-every 2 over 6 rounds)")
	}
}

// TestChurnErrorsReachEventLog: a toggle the fabric refuses — here a
// restore of a switch that is up — must land in the /events log instead
// of vanishing.
func TestChurnErrorsReachEventLog(t *testing.T) {
	d := startDaemon(t, "-topo", "4x4 mesh")
	node := int(d.rig.HostSwitch) // up, like every device after bootstrap
	d.applyChurn([]chaos.Event{{Op: chaos.OpUp, Node: node}})
	var logged []obs.Event
	for _, e := range d.plane.Events(100) {
		if e.Kind == obs.EventChurnError {
			logged = append(logged, e)
		}
	}
	if len(logged) != 1 || !strings.Contains(logged[0].Detail, fabric.ErrAlreadyUp.Error()) {
		t.Errorf("churn errors logged: %+v, want one carrying %q", logged, fabric.ErrAlreadyUp)
	}
}
