package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Spec mirrors BENCHMARK.json, the benchmark's published contract.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one declared metric; Bound is set on end-to-end metrics
// only: the share of the baseline by which the metric may worsen.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repo root, whether the command
// runs there or inside the benchmark directory.
func loadSpec() (*Spec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var s Spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(m SpecMetric, a, b float64) float64 {
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		return -d
	}
	return d
}

// runAA runs the end-to-end set twice on the same build and compares the
// two: any metric whose two values differ by more than its bound means
// the benchmark cannot resolve a regression of that size.
func runAA(seed int64, seconds int) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	var sets [2][]*LiveResult
	for i := range sets {
		for _, w := range Workloads {
			res, err := liveOnce(w, seed, seconds)
			if err != nil {
				return err
			}
			if len(res.Invalid) > 0 {
				return fmt.Errorf("%w: %s: %v", errInvalid, w.Name, res.Invalid)
			}
			sets[i] = append(sets[i], res)
		}
	}
	exceeded := 0
	fmt.Printf("%-16s %-26s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "rel diff", "bound")
	for wi, w := range Workloads {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][wi].EndToEnd[m.Name].Value, sets[1][wi].EndToEnd[m.Name].Value
			diff := math.Abs(worsening(m, a, b))
			flag := ""
			if diff > m.Bound {
				flag = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-16s %-26s %14.6f %14.6f %8.2f%% %6.0f%%%s\n", w.Name, m.Name, a, b, diff*100, m.Bound*100, flag)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same build by more than their bound", exceeded)
	}
	return nil
}
