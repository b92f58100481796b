// The feedback controller: turns the transport back-pressure signals the
// producers already measure (worker-queue / outbox occupancy and ack RTT)
// into a global sampling rate that converges on the user-set overhead
// budget (race.Options.Budget).
package sampling

import (
	"sync"
	"time"
)

// Controller trades the sampler's global rate against observed transport
// back-pressure. It implements event.BackpressureObserver, so the local
// pipeline, the remote client and every cluster member can feed it the
// back-pressure signals they measure:
//
//   - Pressure (a worker queue at or past half capacity, or an ack RTT
//     blown past 4× the observed floor) halves the rate — multiplicative
//     decrease, clamped at the sampler's floor.
//   - A clear signal (an empty queue, or an RTT back within 2× the floor)
//     moves the rate a fixed fraction of the remaining distance back
//     toward the budget — a damped exponential approach that can never
//     overshoot, so rate changes are monotone within a same-signal
//     window (the no-oscillation bound the tests pin).
//
// With no signals at all (a serial in-process run) the rate simply stays
// at the budget, which keeps the bench lanes deterministic.
//
// A single Controller may be shared by several observers (the cluster
// fan-out creates one client per member); all state is mutex-guarded.
type Controller struct {
	mu     sync.Mutex
	det    *Detector
	budget float64 // target rate in ‰
	floor  float64
	rate   float64
	gain   float64 // fraction of the gap recovered per clear signal
	minRTT time.Duration
}

// NewController returns a controller converging on budget (a fraction in
// (0,1]). Bind attaches the sampler it steers; until then observations
// only move the internal rate.
func NewController(budget float64) *Controller {
	if budget < 0 {
		budget = 0
	}
	if budget > 1 {
		budget = 1
	}
	c := &Controller{
		budget: budget * 1000,
		floor:  1,
		rate:   budget * 1000,
		gain:   0.25,
	}
	return c
}

// Bind attaches the sampler the controller steers and pushes the current
// rate into it. The pipeline/client constructors need the observer before
// the sampler can wrap them, so binding is a second step.
func (c *Controller) Bind(d *Detector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.det = d
	if d != nil {
		if f := float64(d.opt.FloorPermille); f > c.floor {
			c.floor = f
		}
		if c.rate < c.floor {
			c.rate = c.floor
		}
		d.SetRatePermille(uint32(c.rate + 0.5))
	}
}

// RatePermille returns the controller's current rate in ‰.
func (c *Controller) RatePermille() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint32(c.rate + 0.5)
}

// ObserveQueue consumes a queue-occupancy signal (worker-queue depth for
// the local pipeline, outbox depth for the remote client): at or past
// half capacity is pressure, empty is clear.
func (c *Controller) ObserveQueue(queued, capacity int) {
	if capacity <= 0 {
		return
	}
	switch {
	case 2*queued >= capacity:
		c.pressure()
	case queued == 0:
		c.clear()
	}
}

// ObserveRTT consumes one ack round-trip: the minimum observed RTT is the
// floor, 4× over it is pressure, back within 2× is clear.
func (c *Controller) ObserveRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	c.mu.Lock()
	if c.minRTT == 0 || rtt < c.minRTT {
		c.minRTT = rtt
	}
	min := c.minRTT
	c.mu.Unlock()
	switch {
	case rtt > 4*min:
		c.pressure()
	case rtt <= 2*min:
		c.clear()
	}
}

// pressure is the multiplicative decrease: halve the rate, never below
// the floor.
func (c *Controller) pressure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rate /= 2
	if c.rate < c.floor {
		c.rate = c.floor
	}
	c.apply()
}

// clear recovers a fixed fraction of the distance back to the budget —
// strictly monotone toward it, asymptotically converging, never past it.
func (c *Controller) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rate += (c.budget - c.rate) * c.gain
	if c.rate < c.floor {
		c.rate = c.floor
	}
	c.apply()
}

// apply pushes the rate into the bound sampler. Caller holds c.mu.
func (c *Controller) apply() {
	if c.det != nil {
		c.det.SetRatePermille(uint32(c.rate + 0.5))
	}
}
