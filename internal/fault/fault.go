// Package fault provides the failure-planning building block of the
// degraded-mode experiments — deterministic and MTBF-seeded device
// failure schedules consumed by the prototype's injector — and the
// capped exponential backoff internal/loadgen waits between retries of
// an operation the server refused with backpressure.
//
// A Plan is a deterministic, replayable sequence of failure events
// keyed on the user-operation counter, so a run with the same seed
// fails the same device at the same op every time. The package has no
// clock of its own; callers decide what "op" means (the prototype uses
// the measured-phase user-op counter).
package fault

import (
	"fmt"
	"math"
	"time"

	"adapt/internal/sim"
)

// Event is one planned device failure.
type Event struct {
	// Op is the user-operation count at which the failure fires; the
	// first op has count 1.
	Op int64
	// Device is the array column to fail.
	Device int
}

// Plan is an ordered failure schedule. Events are consumed front to
// back via Fire; Plan itself is not safe for concurrent use (the
// prototype serializes consumption through its injector).
type Plan struct {
	events []Event
	next   int
}

// Fixed returns a plan with a single failure: device fails when the
// op counter reaches op. A non-positive op or negative device yields
// an empty plan (no failures).
func Fixed(device int, op int64) *Plan {
	if op <= 0 || device < 0 {
		return &Plan{}
	}
	return &Plan{events: []Event{{Op: op, Device: device}}}
}

// MTBF returns a plan whose inter-failure gaps are exponentially
// distributed with the given mean (in ops), drawn from a seeded
// generator, with the failing device uniform over devices columns.
// Events are generated up to horizon ops. The schedule is fully
// determined by its arguments.
func MTBF(seed uint64, meanOps int64, devices int, horizon int64) *Plan {
	p := &Plan{}
	if meanOps <= 0 || devices < 1 || horizon <= 0 {
		return p
	}
	rng := sim.NewRNG(seed)
	at := int64(0)
	for {
		// Inverse-CDF exponential draw; 1-U keeps the argument of Log
		// strictly positive.
		gap := int64(-float64(meanOps) * math.Log(1-rng.Float64()))
		if gap < 1 {
			gap = 1
		}
		at += gap
		if at > horizon {
			return p
		}
		p.events = append(p.events, Event{Op: at, Device: rng.Intn(devices)})
	}
}

// Events returns the remaining (unfired) schedule.
func (p *Plan) Events() []Event {
	out := make([]Event, len(p.events)-p.next)
	copy(out, p.events[p.next:])
	return out
}

// Next returns the next unfired event without consuming it.
func (p *Plan) Next() (Event, bool) {
	if p == nil || p.next >= len(p.events) {
		return Event{}, false
	}
	return p.events[p.next], true
}

// Fire consumes and returns the next event if its op has been
// reached. Callers poll it with their running op counter; an event
// missed by a counter jump still fires at the next poll.
func (p *Plan) Fire(op int64) (Event, bool) {
	if p == nil || p.next >= len(p.events) {
		return Event{}, false
	}
	e := p.events[p.next]
	if op < e.Op {
		return Event{}, false
	}
	p.next++
	return e, true
}

// String summarizes the remaining schedule.
func (p *Plan) String() string {
	if p == nil || p.next >= len(p.events) {
		return "fault: no failures planned"
	}
	return fmt.Sprintf("fault: %d failure(s), next device %d at op %d",
		len(p.events)-p.next, p.events[p.next].Device, p.events[p.next].Op)
}

// Backoff computes capped exponential retry delays: attempt 0 waits
// Base, each further attempt doubles, never exceeding Cap. The zero
// value takes the defaults (50 µs base, 5 ms cap).
type Backoff struct {
	Base time.Duration
	Cap  time.Duration
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 50 * time.Microsecond
	}
	cap := b.Cap
	if cap <= 0 {
		cap = 5 * time.Millisecond
	}
	if attempt < 0 {
		attempt = 0
	}
	// Shifting past 62 bits would overflow; the cap applies long before.
	if attempt > 30 {
		return cap
	}
	d := base << uint(attempt)
	if d > cap || d < base {
		return cap
	}
	return d
}
