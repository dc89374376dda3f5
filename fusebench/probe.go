package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The end-to-end timings are given in reference-host seconds. The host the
// benchmark runs on is shared: over a few minutes the same fig-matrix cold
// pass took from 2.2 s to 4.7 s, in CPU time as much as in wall time and with
// no steal time, and the slow periods last from seconds to minutes, so no
// statistic over a run's own passes removes them. A fixed probe timed before
// and after every measured interval slows with the work (their correlation
// was 0.94 over 41 fig-matrix passes), and rescaling each interval by the
// probe cut the passes' coefficient of variation from 0.22 to 0.07. The raw
// timings stay in the standard-error summary as <name>_raw.

// probeRef is the probe's duration on the reference host: about a quiet
// period's reading on the 2-vCPU Xeon the baseline was measured on, so that
// there reference-host seconds are close to wall seconds. It only sets the
// scale of the reported numbers and must never change.
const probeRef = 40 * time.Millisecond

// hostClock rescales durations measured on this host to the reference
// host's speed. Its zero value is ready; the first lap only probes.
type hostClock struct {
	last time.Duration // the latest probe
	err  error         // the first probe failure; its laps read as factor 1
}

// lap probes the host and returns the factor that rescales a duration
// measured since the previous lap.
func (h *hostClock) lap() float64 {
	p, err := probe()
	if err != nil {
		if h.err == nil {
			h.err = err
		}
		return 1
	}
	return h.next(p)
}

// next takes probe reading p and returns probeRef over the mean of the two
// readings that bracket the interval since the previous one.
func (h *hostClock) next(p time.Duration) float64 {
	prev := h.last
	if prev == 0 {
		prev = p
	}
	h.last = p
	return 2 * float64(probeRef) / float64(prev+p)
}

// probe runs the probe in a child process, so that its buffers and garbage
// stay out of this process's peak RSS and heap, and returns its time.
func probe() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	out, err := exec.Command(self, "-probe").Output()
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	return time.Duration(ns), nil
}

const (
	probeWorkers = 2       // one per CPU the benchmark uses
	probeTrials  = 3       // the fastest counts: it skips a trial the scheduler delayed
	probeWords   = 1 << 19 // 4 MiB of uint64 per worker: larger than the private caches
	probeSteps   = 1 << 22
)

// runProbe is the child side of probe: it times a fixed piece of work on
// probeWorkers goroutines at once, takes the mean of their durations, and
// prints the fastest of probeTrials such means in nanoseconds. The work mixes
// dependent arithmetic, branches and random reads and writes over a buffer
// larger than the private caches, as the simulator does. It is the
// benchmark's own code, so a change to the program does not move it.
func runProbe() {
	bufs := make([][]uint64, probeWorkers)
	for i := range bufs {
		bufs[i] = make([]uint64, probeWords)
	}
	var best time.Duration
	var sink uint64
	for range probeTrials {
		var wg sync.WaitGroup
		durs := make([]time.Duration, probeWorkers)
		sums := make([]uint64, probeWorkers)
		for i := range probeWorkers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				sums[i] = probeWork(bufs[i], uint64(i)+1)
				durs[i] = time.Since(t0)
			}()
		}
		wg.Wait()
		var total time.Duration
		for i := range probeWorkers {
			total += durs[i]
			sink += sums[i]
		}
		if mean := total / probeWorkers; best == 0 || mean < best {
			best = mean
		}
	}
	// The sum keeps the work live; it is printed to standard error only.
	fmt.Fprintln(os.Stderr, sink)
	fmt.Println(int64(best))
}

//go:noinline
func probeWork(buf []uint64, seed uint64) uint64 {
	x := seed
	var acc uint64
	for i := range probeSteps {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 20) % uint64(len(buf))
		v := buf[j]
		if v&1 == 0 {
			acc += v ^ x
		} else {
			acc -= v >> 3
		}
		buf[j] = v + x + uint64(i)
	}
	return acc
}
