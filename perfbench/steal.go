package main

import (
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"
)

// On a virtual machine the hypervisor can take the CPUs away while the
// program runs ("steal"), and on a shared host that time swings with the
// neighbours' load, not with the program. Every timing the benchmark
// reports is therefore net of steal: the wall time of the interval minus
// the CPU time the host stole from this machine's CPUs during it, summed
// over CPUs. On bare metal steal is zero and net time is wall time. The
// report also prints the raw wall figures and the steal share.

// userHZ is the tick rate of /proc/stat's counters (USER_HZ, 100 on
// every Linux architecture Go supports).
const userHZ = 100

// stealMS returns the CPU time, in ms summed over all CPUs, stolen by
// the hypervisor since boot: the steal column of /proc/stat's aggregate
// cpu line. It is 0 where the file is missing or has no such column.
func stealMS() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 1e3 / userHZ
}

// stopwatch times one interval in wall time and in host steal. The
// steal counter is read outside the wall interval on both ends.
type stopwatch struct {
	t0     time.Time
	steal0 float64
}

func startWatch() stopwatch {
	s := stealMS()
	return stopwatch{t0: time.Now(), steal0: s}
}

// stop returns the interval's wall time and its net time, both in ms.
// Net time is wall minus steal, never below wall/GOMAXPROCS: stolen time
// can at most have idled every CPU for the whole interval.
func (w stopwatch) stop() (wall, net float64) {
	wall = float64(time.Since(w.t0).Nanoseconds()) / 1e6
	net = max(wall-(stealMS()-w.steal0), wall/float64(goruntime.GOMAXPROCS(0)))
	return wall, net
}
