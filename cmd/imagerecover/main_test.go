package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pathfinder/internal/harness"
	"pathfinder/internal/media"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-size", "16", "-images", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "flag accuracy") || !strings.Contains(got, "edge corr") {
		t.Fatalf("missing Figure 7 table:\n%s", got)
	}
}

// TestPrintReportFailedImage prints a report of one recovered and one
// failed image: the failed image's error is printed in place of its
// metrics, -show renders only the recovered image, and the error names the
// failed one.
func TestPrintReportFailedImage(t *testing.T) {
	const size = 8
	rep := &harness.Fig7Report{Images: []harness.Fig7Result{
		{Name: "qr-1", TakenBranches: 12, FlagAccuracy: 1, EdgeCorrelation: 0.5, Recovered: media.NewGray(size, size)},
		{Name: "qr-2", Err: "harness: image qr-2: no arrival route"},
	}}
	for _, show := range []bool{false, true} {
		var out bytes.Buffer
		err := printReport(&out, rep, size, show)
		if err == nil || !strings.Contains(err.Error(), "1 of 2 images failed: qr-2") {
			t.Fatalf("show=%v: error %v, want one naming qr-2", show, err)
		}
		got := out.String()
		if !strings.Contains(got, "qr-2         failed: harness: image qr-2: no arrival route") {
			t.Fatalf("show=%v: the failed image's error is missing:\n%s", show, got)
		}
		if !strings.Contains(got, "qr-1         12 ") {
			t.Fatalf("show=%v: the recovered image's row is missing:\n%s", show, got)
		}
		if renders := strings.Count(got, "recovered complexity map:"); renders != map[bool]int{false: 0, true: 1}[show] {
			t.Fatalf("show=%v: %d renderings:\n%s", show, renders, got)
		}
	}
}
