package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicksPerSec is USER_HZ, which Linux fixes at 100 for the times
// /proc reports whatever the kernel's own tick rate.
const clockTicksPerSec = 100

// parseStatCPU returns utime+stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name may itself hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(text string) (int64, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseKeyed finds "key:" at a line start of a /proc status-style text
// and returns the first number after it.
func parseKeyed(text, key string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc: no %q line", key)
}

// parseStatusHWM returns VmHWM, the peak resident set in kB, from the
// text of /proc/<pid>/status.
func parseStatusHWM(text string) (int64, error) { return parseKeyed(text, "VmHWM") }

// parseIOWchar returns wchar, the bytes the process passed to write
// syscalls (files and sockets alike), from the text of /proc/<pid>/io.
func parseIOWchar(text string) (int64, error) { return parseKeyed(text, "wchar") }

// procUsage is a snapshot of one process's resource counters.
type procUsage struct {
	cpuTicks int64
	hwmKB    int64
	wchar    int64
}

// readProc snapshots pid's counters. A /proc file read while another
// reader has it open has been seen to come back without its memory
// lines, so a snapshot that does not parse is retried.
func readProc(pid int) (u procUsage, err error) {
	for try := 0; try < 3; try++ {
		if u, err = readProcOnce(pid); err == nil {
			return u, nil
		}
		time.Sleep(time.Millisecond)
	}
	return u, err
}

func readProcOnce(pid int) (procUsage, error) {
	var u procUsage
	read := func(name string, parse func(string) (int64, error), dst *int64) error {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, name))
		if err != nil {
			return err
		}
		*dst, err = parse(string(b))
		return err
	}
	if err := read("stat", parseStatCPU, &u.cpuTicks); err != nil {
		return u, err
	}
	if err := read("status", parseStatusHWM, &u.hwmKB); err != nil {
		return u, err
	}
	if err := read("io", parseIOWchar, &u.wchar); err != nil {
		return u, err
	}
	return u, nil
}

// allocatedBytes sums the disk space allocated (not the apparent size)
// to every regular file under dir.
func allocatedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if st, ok := info.Sys().(*syscall.Stat_t); ok && info.Mode().IsRegular() {
			total += st.Blocks * 512
		}
		return nil
	})
	return total, err
}
