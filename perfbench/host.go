package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc CPU times; it is 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pidCPU is the user plus system CPU time of another process, from
// /proc/<pid>/stat.
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB is a process's peak resident set size (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user.
		if i < 8 {
			st.total += x
		}
		if i == 7 {
			st.steal = x
		}
	}
	return st
}

// stealShare is the share of host CPU time the hypervisor stole since prev.
func (s cpuStat) stealShare(prev cpuStat) float64 {
	return share(s.steal-prev.steal, s.total-prev.total)
}
