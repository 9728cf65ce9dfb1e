package main

import (
	"os"
	"strconv"
	"strings"
)

// A virtual machine's CPUs are shared with other guests: while a
// neighbour is busy the hypervisor takes CPU time from this guest, and
// every wall-clock figure of that stretch grows with it. /proc/stat counts
// the taken time as steal; the run record carries its share over the run.

// cpuTicks are the host-wide CPU counters of /proc/stat, in clock ticks
// summed over all CPUs.
type cpuTicks struct{ total, steal int64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the percentage of CPU time stolen between two readings (0
// without /proc/stat).
func stealPct(a, b cpuTicks) float64 {
	total := b.total - a.total
	if total <= 0 {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(total)
}
