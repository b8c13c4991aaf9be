package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used, user and system. It
// is the benchmark's measure of work done: unlike wall time it does
// not grow when other tenants of the host take the processors away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error()) // fails only on a bad pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the machine-wide CPU tick counters: all of them, and
// the ones a hypervisor stole from this virtual machine. It returns
// zeros where /proc/stat is not available.
func hostTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter reports the share of the machine's CPU time a hypervisor
// stole during a phase: the main cause of run-to-run spread on a
// shared virtual machine, recorded so a noisy run can be told apart.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s := hostTicks()
	return stealMeter{t, s}
}

func (m stealMeter) print(w io.Writer, workload string) {
	t, s := hostTicks()
	if t <= m.total {
		fmt.Fprintf(w, "host %s steal_frac=unknown\n", workload)
		return
	}
	fmt.Fprintf(w, "host %s steal_frac=%.4f\n", workload, float64(s-m.steal)/float64(t-m.total))
}
