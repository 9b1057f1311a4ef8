package main

import (
	"runtime/metrics"
	"time"
)

// heapPoll is how often the heap sampler reads the heap in use.
const heapPoll = 2 * time.Millisecond

// heapSampler tracks the peak Go heap in use (what MemStats reports as
// HeapInuse: heap object bytes plus the unused part of in-use spans)
// while the timed loop runs. It polls runtime/metrics, which needs no
// stop-the-world, so it can sample inside steps and catch the peak a
// garbage-collection cycle reaches mid-step.
type heapSampler struct {
	stopc chan struct{}
	peak  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var peak uint64
		tick := time.NewTicker(heapPoll)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			select {
			case <-h.stopc:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes once the sampler
// goroutine has exited.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.peak
}
