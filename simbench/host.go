package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runtimeCounters are the runtime/metrics samples the benchmark reads.
var runtimeCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// runtimeReading is one read of runtimeCounters.
type runtimeReading struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeReading{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

func (r runtimeReading) sub(o runtimeReading) runtimeReading {
	return runtimeReading{r.allocBytes - o.allocBytes, r.allocObjects - o.allocObjects, r.gcCycles - o.gcCycles, r.gcCPU - o.gcCPU}
}

func (r runtimeReading) add(o runtimeReading) runtimeReading {
	return runtimeReading{r.allocBytes + o.allocBytes, r.allocObjects + o.allocObjects, r.gcCycles + o.gcCycles, r.gcCPU + o.gcCPU}
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS restarts the high-water mark peakRSSMB reads.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// minorFaults is the process's minor page-fault count so far.
func minorFaults() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Minflt)
}

// probeSink keeps the probe's result live so its loop is not removed.
var probeSink uint64

// probe is the host-speed probe: a fixed CPU loop plus memsets of a 64 MB
// buffer, 0.25–0.5 s on a 2-CPU reference box. Its time is context for
// comparing two sets of runs (a slow host shows as a slow probe), not a
// metric.
func probe() float64 {
	t0 := time.Now()
	buf := make([]byte, 64<<20)
	x := uint64(0x9e3779b97f4a7c15)
	for round := 0; round < 4; round++ {
		for i := range buf {
			buf[i] = byte(round)
		}
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		x += uint64(buf[len(buf)/2])
	}
	probeSink = x
	return time.Since(t0).Seconds()
}
