package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
)

// sweepMain implements the `p2plab sweep` subcommand: expand a
// parameter grid, run every cell on a bounded worker pool, print the
// merged aggregate table and write per-cell results as CSV.
func sweepMain(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	expName := fs.String("exp", "swarm", "experiment family (swarm, churn, dht, gossip, sched, scenario, ping, snapshot-sync)")
	axes := exp.Axes()
	lists := make([]*string, len(axes))
	for i, a := range axes {
		lists[i] = fs.String(a.Flag, "", a.Help)
	}
	workers := fs.Int("workers", 0, "worker pool size (default: one per CPU)")
	fileSize := fs.Int("file-size", 0, "swarm file size in bytes (default 2 MiB)")
	lookups := fs.Int("lookups", 0, "DHT lookups per cell (default 100)")
	fanout := fs.Int("fanout", 0, "gossip fanout (default 3)")
	horizon := fs.Duration("horizon", 0, "virtual-time cap per cell (default 6h)")
	out := fs.String("out", "results", "output directory for sweep.csv")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := exp.Grid{
		Experiment: exp.Experiment(*expName),
		FileSize:   *fileSize,
		Lookups:    *lookups,
		Fanout:     *fanout,
		Horizon:    *horizon,
	}
	for i, a := range axes {
		if err := a.Parse(&g, *lists[i]); err != nil {
			return err
		}
	}

	cells, err := g.Cells()
	if err != nil {
		return err
	}
	fmt.Printf("== sweep: %d cell(s) of %s ==\n", len(cells), *expName)
	res, err := exp.RunSweep(g, *workers)
	if err != nil {
		return err
	}
	for _, c := range res.Cells {
		status := "ok"
		if c.Err != nil {
			status = "FAILED: " + c.Err.Error()
		}
		fmt.Printf("   %-48s %8v  %s\n", c.Cell, c.Wall.Round(time.Millisecond), status)
	}
	fmt.Printf("   %d/%d cells ok in %v (pool: %d workers)\n\n",
		len(res.Cells)-res.Failed, len(res.Cells), res.Wall.Round(time.Millisecond), res.Workers)

	if err := res.Merged.Table().Render(os.Stdout); err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	csvPath := filepath.Join(*out, "sweep.csv")
	if err := writeFile(csvPath, func(w io.Writer) error {
		return metrics.WriteSnapshotsCSV(w, res.Snapshots())
	}); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d rows)\n", csvPath, len(res.Cells)-res.Failed)
	if res.Failed > 0 {
		return fmt.Errorf("%d cell(s) failed", res.Failed)
	}
	return nil
}
