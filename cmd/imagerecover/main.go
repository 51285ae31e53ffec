// Command imagerecover runs the §8 secret-image recovery over the
// synthetic evaluation set and prints the Figure 7 table plus ASCII
// renderings of original, edge map and recovery.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"pathfinder/internal/harness"
	"pathfinder/internal/media"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("imagerecover", flag.ContinueOnError)
	size := fs.Int("size", 16, "secret image edge length in pixels")
	quality := fs.Int("quality", 60, "JPEG quality 1..100")
	images := fs.Int("images", 15, "how many of the 15 test images to attack")
	seed := fs.Int64("seed", 29, "deterministic seed")
	show := fs.Bool("show", false, "print ASCII art per image")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := harness.Fig7ImageRecovery(ctx, harness.Options{Seed: *seed}, *size, *quality, *images)
	if err != nil {
		return err
	}
	return printReport(out, rep, *size, *show)
}

// printReport prints the Figure 7 table of rep, whose images are the first
// of the size-px test set, with ASCII renderings of each original and its
// recovery when show is set. A failed image gets its error in place of its
// metrics and rendering, and printReport then returns an error naming every
// failed image.
func printReport(out io.Writer, rep *harness.Fig7Report, size int, show bool) error {
	fmt.Fprintf(out, "%-12s %-16s %-14s %s\n", "image", "taken branches", "flag accuracy", "edge corr")
	set := media.TestSet(size)
	var failed []string
	for i, r := range rep.Images {
		if r.Err != "" {
			fmt.Fprintf(out, "%-12s failed: %s\n", r.Name, r.Err)
			failed = append(failed, r.Name)
			continue
		}
		fmt.Fprintf(out, "%-12s %-16d %-14.3f %.2f\n", r.Name, r.TakenBranches, r.FlagAccuracy, r.EdgeCorrelation)
		if show {
			fmt.Fprintf(out, "\noriginal:\n%s\nrecovered complexity map:\n%s\n",
				set[i].Image.ASCII(1), r.Recovered.ASCII(1))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("imagerecover: %d of %d images failed: %s", len(failed), len(rep.Images), strings.Join(failed, ", "))
	}
	return nil
}
