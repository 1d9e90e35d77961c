package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeriod is how often an rssSampler reads the resident set.
const rssPeriod = 10 * time.Millisecond

// rssSampler reads the resident set every rssPeriod from its own goroutine
// while a timed loop runs.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.samples = append(s.samples, rssMB())
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the 95th percentile of its samples
// (MB): the level the resident set reaches again and again over the loop,
// where the maximum would be one garbage-collection cycle's spike.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return rssMB()
	}
	return quantile(s.samples, 0.95)
}

// releaseSetupGarbage collects what set-up left behind and returns it to
// the operating system, so the resident set sampled in the timed loop is
// the loop's own.
func releaseSetupGarbage() {
	runtime.GC()
	debug.FreeOSMemory()
}
