package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// Host measurements. CPU time comes from the kernel's per-process
// scheduler accounting (the process CPU-time clock, nanosecond
// resolution, summed over every thread that ever ran), which leaves out
// the time a hypervisor steals; it still varies with what other tenants
// do to shared cores and caches. /proc/stat supplies the steal share
// printed beside each run so a noisy run can be told apart from a
// regression.

// processCPU returns the CPU seconds (user plus system, every thread)
// that process pid has consumed, read from its CPU-time clock.
func processCPU(pid int) (float64, error) {
	// clock_getcpuclockid: the per-process scheduler clock is
	// (~pid << 3) | CPUCLOCK_SCHED.
	clock := uintptr((^pid)<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("cpu clock of pid %d: %w", pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// selfCPU is processCPU of the benchmark process itself.
func selfCPU() float64 {
	s, err := processCPU(os.Getpid())
	if err != nil {
		panic(err) // the calling process can always read its own clock
	}
	return s
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	Total, Steal uint64
}

// parseProcStat decodes the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice]. Guest time is
// already counted inside user and nice, so it is not added again.
func parseProcStat(text string) (cpuTimes, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("/proc/stat: short cpu line %q", line)
		}
		var t cpuTimes
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
			}
			t.Total += v
			if i == 7 {
				t.Steal = v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

func readProcStat() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseProcStat(string(b))
}

// stealShare is the fraction of all CPU time between a and b that the
// hypervisor stole.
func stealShare(a, b cpuTimes) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// pidTimes is the user and system CPU of a process from /proc/<pid>/stat,
// in clock ticks.
type pidTimes struct {
	User, System uint64
}

// parsePidStat decodes utime and stime (fields 14 and 15) of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// hold spaces, so fields are counted from the last closing parenthesis.
func parsePidStat(text string) (pidTimes, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return pidTimes{}, fmt.Errorf("pid stat: no command field in %q", text)
	}
	f := strings.Fields(text[end+1:])
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return pidTimes{}, fmt.Errorf("pid stat: %d fields after the command", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return pidTimes{}, fmt.Errorf("pid stat utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return pidTimes{}, fmt.Errorf("pid stat stime: %w", err)
	}
	return pidTimes{User: u, System: s}, nil
}

func readPidStat(pid int) (pidTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return pidTimes{}, err
	}
	return parsePidStat(string(b))
}

// peakRSSMB is VmHWM of process pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("VmHWM: unexpected %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in status", pid)
}

// spinFlag makes the benchmark binary an idle-priority spinner: it
// switches its thread to SCHED_IDLE, reports "ready" and spins until it
// is killed.
const spinFlag = "spin"

func spinChild() error {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler: %w", errno)
	}
	fmt.Println("ready")
	for {
	}
}

// spinners keeps every CPU busy while a serving phase runs. A sparse
// phase leaves its CPUs idle between requests; on a virtual machine an
// idle vCPU halts and each wake-up then waits for the hypervisor to
// schedule it again, a delay that follows the load of other tenants and
// not the program (on a 2-vCPU VM, sparse wall p50 rose by half at 10%
// steal). SCHED_IDLE spinners take only time no other task wants, so
// moused and the client still run at once, but the vCPUs stay scheduled:
// the user-space form of booting with idle=poll.
type spinners []*exec.Cmd

// startSpinners starts one spinner per CPU and waits until each runs at
// idle priority.
func startSpinners(n int) (spinners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var s spinners
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-"+spinFlag)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		s = append(s, cmd)
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil || line != "ready\n" {
			s.stop()
			return nil, fmt.Errorf("spinner did not start: %q %v", line, err)
		}
	}
	return s, nil
}

// stop kills the spinners and waits for them to exit.
func (s spinners) stop() {
	for _, cmd := range s {
		_ = cmd.Process.Kill() // fails only if it already exited
		_ = cmd.Wait()         // a killed spinner exits with a signal status
	}
}
