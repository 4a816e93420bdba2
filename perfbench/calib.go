package main

import (
	"sort"
	"time"
)

// The host this benchmark is meant for shares its cores: the same code runs
// up to 2.5× faster from one second to the next, and the level drifts by
// half over minutes. A run therefore times a fixed loop of its own — no
// code of the program — around the calls it times, whenever the program is
// idle, and reports every host time at a reference speed of that loop:
//
//	reported seconds = measured seconds × loop rate at that moment / calRef
//
// A change to the program moves the measured seconds but not the loop, so
// it still shows in full; a change in the host's speed moves both.
const (
	calSpin = 10 * time.Millisecond
	// calEvery is the most time a timed call may wait for a sample
	// before it: calls shorter than this share the samples around them.
	calEvery = 100 * time.Millisecond
	// openWindow is how far from an open-loop request samples still
	// count towards its rate (see openSeconds).
	openWindow = 5 * time.Second
	// calRef is the reference loop rate in iterations per second, near
	// the median rate of a 2-vCPU Xeon host at 2.0 GHz.
	calRef = 15000.0
)

var calBuf [1 << 16]uint64 // 512 KiB: a working set beyond L1 and L2

// hostCal is the run's timeline of loop rates. Only the run's main
// goroutine, which drives every stage, uses it.
type hostCal struct {
	t0   time.Time
	last time.Time // end of the latest sample
	pts  []calPoint
}

type calPoint struct {
	at   time.Duration // midpoint of the spin, since t0
	rate float64       // loop iterations per second
}

func newHostCal() *hostCal { return &hostCal{t0: time.Now()} }

// sample spins the loop for calSpin and records its rate. Callers invoke it
// only while no request or layer call of theirs is running, so the loop
// measures the host, not the benchmark's own load.
func (c *hostCal) sample() {
	start := time.Now()
	n := 0
	for time.Since(start) < calSpin {
		for i := range calBuf {
			calBuf[i] = calBuf[i]*6364136223846793005 + uint64(i)
		}
		n++
	}
	d := time.Since(start)
	c.pts = append(c.pts, calPoint{at: start.Add(d / 2).Sub(c.t0), rate: float64(n) / d.Seconds()})
	c.last = start.Add(d)
}

// due samples unless a sample ended less than calEvery ago. Calling it
// before and after each timed call brackets every call longer than
// calEvery with its own samples.
func (c *hostCal) due() {
	if time.Since(c.last) >= calEvery {
		c.sample()
	}
}

// spent returns the time the run spent in the loop.
func (c *hostCal) spent() time.Duration {
	return time.Duration(len(c.pts)) * calSpin
}

// rateAt interpolates the loop rate at t between the samples around it.
func (c *hostCal) rateAt(t time.Time) float64 {
	at := t.Sub(c.t0)
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].at >= at })
	switch {
	case len(c.pts) == 0:
		return calRef
	case i == 0:
		return c.pts[0].rate
	case i == len(c.pts):
		return c.pts[i-1].rate
	}
	a, b := c.pts[i-1], c.pts[i]
	f := float64(at-a.at) / float64(b.at-a.at)
	return a.rate + f*(b.rate-a.rate)
}

// meanRateNear returns the mean loop rate of the samples within w of t
// (the interpolated rate when none is that close).
func (c *hostCal) meanRateNear(t time.Time, w time.Duration) float64 {
	at := t.Sub(c.t0)
	lo := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].at >= at-w })
	hi := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].at > at+w })
	if lo == hi {
		return c.rateAt(t)
	}
	var rates []float64
	for _, p := range c.pts[lo:hi] {
		rates = append(rates, p.rate)
	}
	return mean(rates)
}

// meanRate is the average of the sampled rates.
func (c *hostCal) meanRate() float64 {
	return c.meanRateNear(c.t0, time.Since(c.t0))
}

// interval is one timed stretch of the run.
type interval struct{ start, end time.Time }

func since(start time.Time) interval { return interval{start, time.Now()} }

// seconds returns the interval's length at the reference host speed.
func (c *hostCal) seconds(iv interval) float64 {
	d := iv.end.Sub(iv.start)
	return d.Seconds() * c.rateAt(iv.start.Add(d/2)) / calRef
}

// openSeconds is seconds for the open loop, which no sample may interrupt
// (the loop would steal a core from requests already due): its requests
// lie up to seconds from a sample, so they take the mean rate of the
// samples within openWindow rather than two single 10 ms readings.
func (c *hostCal) openSeconds(iv interval) float64 {
	d := iv.end.Sub(iv.start)
	return d.Seconds() * c.meanRateNear(iv.start.Add(d/2), openWindow) / calRef
}
