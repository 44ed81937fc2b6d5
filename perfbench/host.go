package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostRecord fingerprints the machine a run measured on, so a noisy run
// can be told apart from a regression.
type hostRecord struct {
	nproc      int
	gomaxprocs int
	goVersion  string
	cpuModel   string
}

func readHost() hostRecord {
	h := hostRecord{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version(), cpuModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h hostRecord) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", h.nproc, h.gomaxprocs, h.goVersion, h.cpuModel)
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in ticks.
type cpuStat struct {
	total, steal int64
}

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s cpuStat
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64) // a malformed field only blurs the informational steal share
		// guest and guest_nice (fields 9 and 10) are already inside user.
		if i < 8 {
			s.total += n
		}
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// stealShare is the share of all CPU time stolen by the hypervisor
// between two samples.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
