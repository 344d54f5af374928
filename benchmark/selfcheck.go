package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck judges the benchmark the way its acceptance driver does:
// per workload, two independent sets of `runs` runs (run i of either set
// uses seed+i), each in its own process so that peak RSS and set-up start
// clean. It prints each set's median and spread (IQR / median) per
// end-to-end metric and fails when a spread exceeds the metric's bound
// (setup_s excepted) or the second set's median is worse than the first's
// by more than the bound.
func runSelfcheck(cfg config, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-runs %d: a set needs at least 2 runs", runs)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" || cfg.workload == "" {
		names = workloadNames
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, name := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := childRun(exe, cfg, name, cfg.seed+int64(i))
				if err != nil {
					return fmt.Errorf("%s set %d run %d: %w", name, s+1, i+1, err)
				}
				for metric, v := range res.Metrics {
					sets[s][metric] = append(sets[s][metric], v.Value)
				}
			}
		}
		fmt.Printf("%-14s %-16s %12s %8s %12s %8s %8s %6s\n", name, "metric", "median1", "spread1", "median2", "spread2", "worse", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			m1, m2 := median(a), median(b)
			worse := (m2 - m1) / m1
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound || (d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound)) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-14s %-16s %12.5g %7.2f%% %12.5g %7.2f%% %7.2f%% %5.1f%% %s\n",
				"", d.Name, m1, 100*spread(a), m2, 100*spread(b), 100*worse, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric/workload pairs outside their bound", bad)
	}
	return nil
}

// childRun runs one workload in a child process and parses its last line.
func childRun(exe string, cfg config, workload string, seed int64) (*result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-rounds", strconv.Itoa(cfg.rounds)}
	if cfg.allowUndersized {
		args = append(args, "-allow-undersized")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("result not correct: %d of %d failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
