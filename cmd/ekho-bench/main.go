// Command ekho-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ekho-bench -list
//	ekho-bench -run fig8,fig9 -scale standard
//	ekho-bench -run all -scale full        # the paper's full workload
//
// Each experiment prints the rows/series of the corresponding table or
// figure (see DESIGN.md §10 for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ekho/internal/experiments"
)

func main() {
	runIDs := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	scaleStr := flag.String("scale", "standard", "workload scale: quick|standard|full")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.String("json", "", "also write structured results (id, title, values) to this JSON file")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var ids []string
	if *runIDs == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, ok := experiments.Get(id); !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	type jsonReport struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Seconds float64            `json:"seconds"`
		Values  map[string]float64 `json:"values"`
	}
	var structured []jsonReport
	for _, id := range ids {
		run, _ := experiments.Get(id)
		start := time.Now()
		report := run(scale)
		elapsed := time.Since(start).Seconds()
		fmt.Print(report.String())
		fmt.Printf("(%s in %.1fs)\n\n", id, elapsed)
		structured = append(structured, jsonReport{
			ID: report.ID, Title: report.Title, Seconds: elapsed, Values: report.Values,
		})
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ekho-bench:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(structured); err != nil {
			fmt.Fprintln(os.Stderr, "ekho-bench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ekho-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote structured results to %s\n", *jsonOut)
	}
}
