// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package in this repository runs
// on: fabric devices schedule packet transmissions, propagation delays and
// processing completions as events, and the fabric manager's discovery
// algorithms advance by reacting to delivered packets. Simulated time is an
// integer number of picoseconds, which keeps link serialization times for
// multi-gigabit links exact and makes runs bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, measured in picoseconds since the
// start of the simulation. Picosecond resolution keeps the serialization
// time of a single byte on a 2.0 Gbps ASI link (4000 ps) exactly
// representable, so event ordering never depends on floating-point
// rounding.
type Time int64

// Duration is a span of simulated time in picoseconds. It is a distinct
// type from Time so that the compiler rejects accidental point/span mixes
// beyond the arithmetic defined here.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel Time later than any reachable simulation instant.
const Never Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String renders t with an adaptive unit, e.g. "1.500us" or "2.300ms".
func (t Time) String() string { return Duration(t).String() }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds converts d to floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Scale multiplies d by factor f, rounding to the nearest picosecond.
// Scaling by 1/f is how FM and device processing-speed factors from the
// paper's Figs. 8-9 are applied.
func (d Duration) Scale(f float64) Duration {
	if f == 1 {
		return d
	}
	v := float64(d) * f
	if v >= 0 {
		return Duration(v + 0.5)
	}
	return Duration(v - 0.5)
}

// String renders d with an adaptive unit.
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		// The most negative Duration has no positive twin; a picosecond
		// less is the same at any printed precision past a second.
		d = -max(d, -math.MaxInt64)
	}
	switch {
	case d >= Second:
		return fmt.Sprintf("%s%.6fs", neg, d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%s%.3fms", neg, float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%s%.3fus", neg, float64(d)/float64(Microsecond))
	case d >= Nanosecond:
		return fmt.Sprintf("%s%.3fns", neg, float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	}
}

// Micros builds a Duration from floating-point microseconds, rounding to
// the nearest picosecond.
func Micros(us float64) Duration {
	return Duration(us*float64(Microsecond) + 0.5)
}

// Nanos builds a Duration from floating-point nanoseconds, rounding to the
// nearest picosecond.
func Nanos(ns float64) Duration {
	return Duration(ns*float64(Nanosecond) + 0.5)
}

// Seconds builds a Duration from floating-point seconds.
func Seconds(s float64) Duration {
	return Duration(s*float64(Second) + 0.5)
}
