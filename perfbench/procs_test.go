package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := "4242 (fps (ping) d) S 1 4242 4242 0 -1 4194560 1200 0 0 0 731 269 0 0 20 0 9 0 123 0 0\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1000 {
		t.Errorf("utime+stime = %d, want 731+269", got)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tfpspingd\nVmPeak:\t 1300000 kB\nVmHWM:\t   13576 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 13576 {
		t.Errorf("VmHWM = %d kB, want 13576", got)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestParseProcStat(t *testing.T) {
	stat := "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n"
	got, err := parseProcStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got.steal != 35 || got.total != 1000 {
		t.Errorf("got %+v, want steal 35 of 1000", got)
	}
	if share := got.minus(cpuTicks{}).share(); share != 0.035 {
		t.Errorf("share = %g", share)
	}
	if _, err := parseProcStat([]byte("intr 1 2 3\n")); err == nil {
		t.Error("parsed a /proc/stat without a cpu line")
	}
}
