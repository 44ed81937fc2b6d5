package main

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The host's speed drifts by 15-40% over minutes with no steal at all
// (in five runs of one seed, server CPU per read moved 36.4-43.1 ms, and
// every wall-clock metric with it), and by far more when neighbours are
// busy. No in-run filter removes that, so each run also times a fixed
// calibration kernel of its own, independent of the program under test,
// and reports every time metric at a reference host speed: the raw value
// divided by the kernel's median time over refKernel. The kernel is
// sampled after each setup launch and after each read block, and only the
// samples next to kept launches and blocks count; the write probe of the
// read-only workloads, a few seconds after the reads, shares their
// slowdown. The raw values are printed beside the normalized ones.

// refKernel is the kernel's median time on the reference host: a 2-vCPU
// Intel Xeon VM at 2.0 GHz (Go 1.24) with no steal.
const refKernel = 13 * time.Millisecond

// Kernel shape: a dependent walk over a random cycle well past L2, an
// integer hash loop, and small string allocations with map inserts — the
// memory latency, arithmetic and allocator work a query's execution and
// encoding do, none of it through the program's own code.
const (
	walkLen   = 1 << 22 // 16 MiB of uint32
	walkSteps = 40000
	hashSteps = 1500000
	allocKeys = 4000
)

type calibrator struct {
	cycle []uint32
}

// newCalibrator builds the walk cycle from a fixed seed, so every run
// times the same work.
func newCalibrator() *calibrator {
	perm := rand.New(rand.NewSource(1)).Perm(walkLen)
	c := &calibrator{cycle: make([]uint32, walkLen)}
	for i := range perm {
		c.cycle[perm[i]] = uint32(perm[(i+1)%walkLen])
	}
	return c
}

// sample runs the kernel once on every P at the same time, since the
// server's workers use all of them, and returns the wall time.
func (c *calibrator) sample() time.Duration {
	n := runtime.GOMAXPROCS(0)
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = c.kernel(uint32(g * walkLen / n))
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	for _, v := range sums {
		calibSink += v
	}
	return d
}

// calibSink keeps the kernel's results live.
var calibSink uint64

func (c *calibrator) kernel(at uint32) uint64 {
	for i := 0; i < walkSteps; i++ {
		at = c.cycle[at]
	}
	h := uint64(at) | 1
	for i := 0; i < hashSteps; i++ {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= uint64(i)
	}
	m := make(map[string]int, allocKeys)
	var b []byte
	for i := 0; i < allocKeys; i++ {
		b = strconv.AppendUint(b[:0], h+uint64(i), 36)
		m[string(b)] = i
	}
	return h + uint64(len(m))
}

// slowdown is the host's speed factor: the kernel's median time over
// refKernel, above 1 on a slower host.
func slowdown(samples []time.Duration) float64 {
	v := make([]float64, len(samples))
	for i, d := range samples {
		v[i] = float64(d)
	}
	return median(v) / float64(refKernel)
}

// keptSamples returns the samples whose block is kept.
func keptSamples(samples []time.Duration, keep []bool) []time.Duration {
	var out []time.Duration
	for i, k := range keep {
		if k {
			out = append(out, samples[i])
		}
	}
	return out
}

// normalize rescales the time metrics of m to the reference host speed
// and returns the raw values. Throughput scales the other way; memory
// does not scale.
func normalize(m map[string]float64, slowdown float64) map[string]float64 {
	raw := map[string]float64{}
	for k, v := range m {
		raw[k] = v
		switch k {
		case "server_rss_mb":
		case "queries_per_s":
			m[k] = v * slowdown
		default:
			m[k] = v / slowdown
		}
	}
	return raw
}
