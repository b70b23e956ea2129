package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may contain spaces and parentheses; utime and stime
	// are the 14th and 15th fields.
	stat := []byte("4242 (cutfitd (v2) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 25 0 0 20 0 7 0 12345 1000000 500 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(150+25) / clockTicksPerSec; got != want {
		t.Errorf("CPU seconds = %g, want %g", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 11 x y"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tcutfitd\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n")
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if got != 123456 {
		t.Errorf("VmHWM = %d kB, want 123456", got)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key should be an error")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 pages\n"), "VmHWM"); err == nil {
		t.Error("a non-kB unit should be an error")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc on this platform")
	}
	// Burn a little CPU so the counters are certainly non-zero.
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i
	}
	_ = x
	cpu, err := procCPUSecs(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if cpu < 0 || cpu > 3600 {
		t.Errorf("own CPU seconds = %g", cpu)
	}
	if ru := selfCPUSecs(); ru <= 0 {
		t.Errorf("getrusage CPU seconds = %g", ru)
	}
	rss, err := procPeakRSSMiB(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 {
		t.Errorf("own peak RSS = %g MiB", rss)
	}
	now, err := procRSSMiB(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if now <= 0 {
		t.Errorf("own RSS = %g MiB", now)
	}
}

// The sampler takes a reading every rssEvery, and one at the end of a window
// too short for a tick.
func TestRSSSampler(t *testing.T) {
	if got := sampleRSS(os.Getpid()).finish(); len(got) != 1 || got[0] <= 0 {
		t.Errorf("immediate finish: samples %v", got)
	}
	s := sampleRSS(os.Getpid())
	time.Sleep(5 * rssEvery)
	if got := s.finish(); len(got) < 2 || len(got) > 6 {
		t.Errorf("%d samples in five periods", len(got))
	}
	if got := sampleRSS(os.Getpid(), -1).finish(); len(got) != 0 {
		t.Errorf("unreadable process: samples %v", got)
	}
}
