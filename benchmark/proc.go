package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is fixed at 100 by the kernel ABI on every architecture Go supports.
const clockTicks = 100

// procStat is the slice of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	cpu    time.Duration // utime + stime
	faults uint64        // minflt + majflt
}

// parseProcStat parses the contents of /proc/<pid>/stat. The command name
// (field 2) may hold spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(s string) (procStat, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("proc stat: no command field in %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	var v [4]uint64
	for j, k := range []int{10, 12, 14, 15} { // minflt, majflt, utime, stime
		n, err := strconv.ParseUint(f[k-3], 10, 64)
		if err != nil {
			return procStat{}, fmt.Errorf("proc stat field %d: %w", k, err)
		}
		v[j] = n
	}
	return procStat{
		cpu:    time.Duration(v[2]+v[3]) * time.Second / clockTicks,
		faults: v[0] + v[1],
	}, nil
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

// parseStatusKB returns the value in kB of a "Key:   123 kB" line of
// /proc/<pid>/status.
func parseStatusKB(s, key string) (uint64, error) {
	for _, line := range strings.Split(s, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// peakRSSMB reads the process's peak RSS (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	return float64(kb) / 1024, err
}

// resetPeakRSS restarts the process's VmHWM from its current RSS. Writing 5
// to clear_refs touches nothing else: page tables, soft-dirty and referenced
// bits are left alone.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// rssWindow is how long one peak-RSS sampling window lasts.
const rssWindow = time.Second

// rssSampler records the peak RSS of each rssWindow of a process's life. It
// serves the daemon, which runs several jobs at once, so no op has a peak of
// its own. A run's single peak follows where GC happened to land and varies
// by a fifth between runs; the median of many window peaks does not.
type rssSampler struct {
	pid   int
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peaks []float64
}

// startRSSSampler starts sampling pid. When the kernel refuses the reset,
// each window reports the peak since the process started.
func startRSSSampler(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	_ = resetPeakRSS(pid) // best effort; see above
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	mb, err := peakRSSMB(s.pid)
	if err != nil {
		return // the process exited; its earlier windows stand
	}
	_ = resetPeakRSS(s.pid)
	s.mu.Lock()
	s.peaks = append(s.peaks, mb)
	s.mu.Unlock()
}

// finish takes a last sample, stops the sampler and returns every window's
// peak.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peaks
}

// dirMB returns the size in MB of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil // a file removed mid-walk simply does not count
	})
	return float64(n) / (1 << 20)
}

// host records where and on what a result was measured.
type host struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
}

func readHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash("."),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A build inside a git work tree stamps the revision; a plain source
	// checkout has none, and the source hash identifies the code instead.
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// loadavg returns the 1, 5 and 15 minute load averages.
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// sourceHash digests every Go source and module file under root, so a
// result names the code it measured even outside a git work tree.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
