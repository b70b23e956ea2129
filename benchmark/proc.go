package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicksPerSec is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports.
const clockTicksPerSec = 100

// parseStatCPU extracts user+system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces or parentheses, so fields are counted from the last
// ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: stat has no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: stat has %d fields after the command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc: stime: %w", err)
	}
	return float64(ut+st) / clockTicksPerSec, nil
}

// parseStatusKB extracts one "<key>:  <n> kB" field from the contents of
// /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc: %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc: status has no %s", key)
}

// procCPUSecs returns the user+system CPU seconds process pid has used.
func procCPUSecs(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// procStatusMiB returns one kB field of /proc/<pid>/status in MiB.
func procStatusMiB(pid int, key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, key)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// procRSSMiB returns the resident-set size of process pid.
func procRSSMiB(pid int) (float64, error) { return procStatusMiB(pid, "VmRSS") }

// procPeakRSSMiB returns the resident-set high-water mark of process pid.
func procPeakRSSMiB(pid int) (float64, error) { return procStatusMiB(pid, "VmHWM") }

// rssEvery is how often a timed window samples the resident size of the
// system under test: 300 samples in a 15 s window, at the cost of one small
// /proc read per process.
const rssEvery = 50 * time.Millisecond

// rssSampler records the summed resident size of some processes every
// rssEvery until it is finished. rss_p50_mb is the median of its samples:
// the high-water mark of a Go process is an extreme value that depends on
// where in a collection cycle its largest transient allocations fall, and
// read 170 or 240 MiB from one serve-hot run to the next.
type rssSampler struct {
	pids       []int
	stop, done chan struct{}
	mib        []float64
}

func sampleRSS(pids ...int) *rssSampler {
	s := &rssSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample appends one reading; a process that cannot be read voids it.
func (s *rssSampler) sample() {
	var sum float64
	for _, pid := range s.pids {
		m, err := procRSSMiB(pid)
		if err != nil {
			return
		}
		sum += m
	}
	s.mib = append(s.mib, sum)
}

// finish stops the sampler and returns its samples; a window shorter than
// rssEvery yields the size at its end.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	if len(s.mib) == 0 {
		s.sample()
	}
	return s.mib
}

// selfCPUSecs returns this process's user+system CPU seconds.
func selfCPUSecs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetSelfPeakRSS restarts this process's VmHWM at its current resident
// size, so the peak an in-process workload prints is the timed window's and
// not the repeated set-ups'. Best effort: where the kernel refuses, the peak
// simply covers the set-ups too.
func resetSelfPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
