package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/sim"
)

// The keeper replaces the serve loop's fixed churn/audit cadence with
// per-concern deadlines: each steady-state duty — churn rounds, the
// stale-region re-audit, dead-cursor expiry, the debounce flush — owns
// its own next-due instant and a fire function that performs the duty
// and returns the following one. Once runs every due concern exactly
// once and reports the earliest upcoming deadline, so the serve loop
// sleeps precisely until the next duty instead of polling on one clock.

// concern is one keeper duty.
type concern struct {
	name string
	due  time.Time
	fire func(now time.Time) time.Time
}

// keeper holds the daemon's concerns in registration order.
type keeper struct {
	concerns []*concern
}

// add registers a concern first due at start.
func (k *keeper) add(name string, start time.Time, fire func(now time.Time) time.Time) {
	k.concerns = append(k.concerns, &concern{name: name, due: start, fire: fire})
}

// Once fires every concern whose deadline has arrived and returns the
// earliest next deadline. It never sleeps; the caller owns pacing.
func (k *keeper) Once(now time.Time) time.Time {
	for _, c := range k.concerns {
		if !now.Before(c.due) {
			c.due = c.fire(now)
		}
	}
	next := k.concerns[0].due
	for _, c := range k.concerns[1:] {
		if c.due.Before(next) {
			next = c.due
		}
	}
	return next
}

// newKeeper builds the daemon's keeper: churn paced by interval, the
// re-audit concern on the same cadence (firing only when its round-count
// or staleness trigger is armed), cursor expiry every few intervals, and
// a debounce-flush safety net at a quarter interval. Fire functions take
// d.mu themselves; the caller must not hold it.
func (d *daemon) newKeeper(start time.Time, interval time.Duration, quiet bool) *keeper {
	if interval <= 0 {
		interval = time.Second
	}
	k := &keeper{}

	if d.ch != nil {
		k.add("churn", start.Add(interval), func(now time.Time) time.Time {
			d.mu.Lock()
			d.round()
			d.mu.Unlock()
			if !quiet {
				s := d.rib.Stats()
				fmt.Fprintf(os.Stderr, "asifmd: round %d gen %d leaves %d subscribers %d down %d lag(p99) %d\n",
					d.rounds, s.Gen, s.Leaves, s.Subscribers, d.ch.Down(), s.Staleness.P99)
			}
			return now.Add(interval)
		})
	}

	k.add("reaudit", start.Add(interval), func(now time.Time) time.Time {
		d.mu.Lock()
		trigger := ""
		if n := d.cfg.AuditEvery; n > 0 && d.rounds-d.lastAudit >= n {
			trigger = fmt.Sprintf("%d rounds since audit", d.rounds-d.lastAudit)
		} else if ms := d.cfg.StaleAfterMS; ms > 0 {
			if _, _, max := d.rig.Manager.DBStaleness(); max > sim.Duration(ms)*sim.Millisecond {
				trigger = fmt.Sprintf("max staleness %v", max)
			}
		}
		if trigger != "" {
			d.audit(trigger)
		}
		d.mu.Unlock()
		return now.Add(interval)
	})

	k.add("expire", start.Add(4*interval), func(now time.Time) time.Time {
		d.mu.Lock()
		if n := d.rig.Manager.ExpireReporters(); n > 0 && !quiet {
			fmt.Fprintf(os.Stderr, "asifmd: expired %d dead PI-5 cursors\n", n)
		}
		d.mu.Unlock()
		return now.Add(4 * interval)
	})

	k.add("flush", start.Add(interval/4), func(now time.Time) time.Time {
		d.mu.Lock()
		if d.rig.Manager.AssimPending() > 0 {
			// Draining the simulation fires the armed debounce timer.
			d.run()
		}
		d.mu.Unlock()
		return now.Add(interval / 4)
	})

	return k
}
