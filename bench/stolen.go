package main

import (
	"os"
	"strconv"
	"strings"
)

// The box this runs on is a virtual machine, and now and then the host gives
// its cores to someone else: for minutes at a time a third to three quarters
// of the CPU time is stolen and every workload but the timer-driven one runs
// two to four times slower (AA.md, study 3). Nothing measured over such a
// spell repeats, and nothing inside the guest can undo it; the kernel does
// report it, so every run states its stolen share and the A/A study refuses
// to judge runs that met one.

// stolenLimit is the share of CPU time stolen during a run above which its
// numbers are not worth comparing; an undisturbed run sees under 0.002.
const stolenLimit = 0.02

// cpuTimes is the machine-wide CPU accounting from the first line of
// /proc/stat, in clock ticks.
type cpuTimes struct{ steal, total uint64 }

// readCPU reads the accounting; where there is none (not Linux) it is zero
// and no run ever counts as disturbed.
func readCPU() (c cpuTimes) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	// user nice system idle iowait irq softirq steal; guest time is already inside user
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stolenSince is the share of the machine's CPU time stolen since an earlier
// reading.
func stolenSince(before cpuTimes) float64 {
	now := readCPU()
	return ratio(float64(now.steal-before.steal), float64(now.total-before.total))
}
