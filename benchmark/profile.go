package main

import (
	"errors"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// profiledModules are the modules CPU time is charged to: this repo's
// internal/ packages on the three workloads' paths, "other" for any other
// internal/ package, and "runtime" for samples with no repo frame at all
// (background GC, the scheduler, the HTTP server's own goroutines).
var profiledModules = []string{"cpu", "phr", "pht", "bpu", "cache", "isa", "aes", "core",
	"attack", "pathfinder", "harness", "snapstore", "wire", "service", "other", "runtime"}

const repoPrefix = "pathfinder/internal/"

// moduleOf charges a sample to the innermost frame under
// pathfinder/internal/<m>. frames are function names, leaf first, so a
// runtime frame (map access, malloc, GC assist) counts toward the repo module
// that called it.
func moduleOf(frames []string) string {
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if rest == "other" || rest == "runtime" || !slices.Contains(profiledModules, rest) {
			return "other"
		}
		return rest
	}
	return "runtime"
}

// profSample is one stack of a CPU profile: function names leaf first, and
// the CPU time it stands for.
type profSample struct {
	frames []string
	cpu    time.Duration
}

// chargeModules sums the samples' CPU time per module.
func chargeModules(samples []profSample) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range samples {
		out[moduleOf(s.frames)] += s.cpu
	}
	return out
}

// readProfile lists the samples of the CPU profile in file as the Go
// toolchain's pprof prints them, so the benchmark needs no profile decoder of
// its own.
func readProfile(file string) ([]profSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit", "ns", file).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", file, err)
	}
	return parseTraces(string(out))
}

// parseTraces reads the output of `go tool pprof -traces -unit ns`. After a
// header, each sample is a block between separator lines: its first line
// holds the sample's CPU time and leaf function, each further line one
// caller. Inlined calls carry an "(inline)" mark and are frames like any
// other.
func parseTraces(text string) ([]profSample, error) {
	var out []profSample
	header, inSample := true, false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			header, inSample = false, false
			continue
		}
		f := strings.Fields(line)
		switch {
		case header || len(f) == 0:
		case inSample:
			out[len(out)-1].frames = append(out[len(out)-1].frames, f[0])
		case len(f) >= 2 && strings.HasSuffix(f[0], "ns"):
			n, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			out = append(out, profSample{frames: []string{f[1]}, cpu: time.Duration(n)})
			inSample = true
		}
	}
	if len(out) == 0 {
		return nil, errors.New("pprof traces: no samples")
	}
	return out, nil
}
