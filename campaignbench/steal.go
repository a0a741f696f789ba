package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// Timing on a shared virtual machine.
//
// On the 2-vCPU development VM the hypervisor took 5-30% of the CPU
// time the guest asked for as steal (/proc/stat), varying over minutes.
// Raw wall times of identical campaign-s1196 bodies in separate runs
// ranged from 10.7 s to 17.9 s, while the same bodies' process CPU time
// stayed within 2%. CPU time is not the answer either: it cannot show
// a parallel speed-up. So the timed metrics scale raw wall time by the
// share of demanded CPU time the machine actually delivered over the
// same interval, busy / (busy + steal), summed over all CPUs. On a
// machine without steal the factor is 1 and the figure is the raw wall
// time.

// cpuStat is the machine's cumulative busy and stolen CPU time, in
// clock ticks, from the first line of /proc/stat.
type cpuStat struct{ busy, steal uint64 }

// readCPUStat returns the zero cpuStat when /proc/stat is unreadable,
// which makes every adjustment a factor of 1.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var v [9]uint64
	for i := 1; i < 9; i++ {
		n, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return cpuStat{}
		}
		v[i] = n
	}
	return cpuStat{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stopwatch times one interval in wall time and in steal.
type stopwatch struct {
	t time.Time
	s cpuStat
}

func startWatch() stopwatch { return stopwatch{time.Now(), readCPUStat()} }

// stop returns the raw wall seconds since start, the same scaled by the
// share of CPU time delivered (see the comment at the top of the file),
// and the share stolen.
func (w stopwatch) stop() (wall, adjusted, stolen float64) {
	wall = time.Since(w.t).Seconds()
	s := readCPUStat()
	busy, steal := s.busy-w.s.busy, s.steal-w.s.steal
	if busy+steal == 0 || s.busy < w.s.busy || s.steal < w.s.steal {
		return wall, wall, 0
	}
	stolen = float64(steal) / float64(busy+steal)
	return wall, wall * (1 - stolen), stolen
}
