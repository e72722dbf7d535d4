package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runSet is the result file `-out` writes and `compare` reads: for
// every (workload, metric) the values of each run, so that medians and
// quartiles can be taken again by whoever reads it.
type runSet struct {
	Runs      map[string]map[string][]float64 `json:"runs"`      // workload -> metric -> one value per run
	Units     map[string]string               `json:"units"`     // metric -> unit
	Attempted map[string]int64                `json:"attempted"` // workload -> ops attempted, all runs
	Failed    map[string]int64                `json:"failed"`    // workload -> ops failed, all runs
	Summary   map[string]map[string]quartiles `json:"summary"`   // derived from Runs when written
}

type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func newRunSet() *runSet {
	return &runSet{
		Runs:      make(map[string]map[string][]float64),
		Units:     make(map[string]string),
		Attempted: make(map[string]int64),
		Failed:    make(map[string]int64),
	}
}

func (s *runSet) add(wl string, r result) {
	if s.Runs[wl] == nil {
		s.Runs[wl] = make(map[string][]float64)
	}
	for name, v := range r.Metrics {
		s.Runs[wl][name] = append(s.Runs[wl][name], v.Value)
		s.Units[name] = v.Unit
	}
	s.Attempted[wl] += r.Attempted
	s.Failed[wl] += r.Failed
}

// quartilesOf matches Python's statistics.quantiles(v, n=4) (the
// exclusive method), the rule the contract measures spread by. With
// fewer than two values the quartiles collapse onto the median.
func quartilesOf(v []float64) quartiles {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := quartiles{Median: median(s), N: len(s)}
	q.Q1, q.Q3 = q.Median, q.Median
	if len(s) < 2 {
		return q
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	q.Q1, q.Q3 = at(1), at(3)
	return q
}

func (s *runSet) summarize() {
	s.Summary = make(map[string]map[string]quartiles)
	for w, metrics := range s.Runs {
		s.Summary[w] = make(map[string]quartiles)
		for m, v := range metrics {
			s.Summary[w][m] = quartilesOf(v)
		}
	}
}

func (s *runSet) write(path string) error {
	s.summarize()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := newRunSet()
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.summarize()
	return s, nil
}

// benchmarkFile is BENCHMARK.json, the keys the contract fixes.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// compareMain implements `compare <a.json> <b.json>`: a is the base, b
// the candidate. Exit 1 on any `worse` or any rise in failures.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("benchmark", "BENCHMARK.json", "file holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] <base.json> <candidate.json>")
		return 2
	}
	bf, err := readBenchmarkFile(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	a, err := readRunSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := readRunSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	return compareSets(w, bf, a, b)
}

// verdict classifies candidate against base for one metric. A change
// is `worse` or `better` only when it exceeds the bound; where either
// side's own run-to-run spread (interquartile range over median)
// exceeds the bound, the pair is `unresolved`, not `same`.
func verdict(m benchMetric, a, b quartiles) (ratio float64, v string) {
	if a.Median == 0 {
		return math.NaN(), "unresolved"
	}
	ratio = b.Median / a.Median
	spread := func(q quartiles) float64 {
		if q.Median == 0 {
			return 0
		}
		return math.Abs(q.Q3-q.Q1) / math.Abs(q.Median)
	}
	change := ratio - 1 // positive = candidate larger
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return ratio, "unresolved"
	case change > m.Bound:
		return ratio, "worse"
	case change < -m.Bound:
		return ratio, "better"
	}
	return ratio, "same"
}

func compareSets(w io.Writer, bf *benchmarkFile, a, b *runSet) int {
	exit := 0
	fmt.Fprintf(w, "%-18s %-28s %14s %14s %10s %7s  %s\n", "workload", "metric", "base", "candidate", "cand/base", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			qa, oka := a.Summary[wl.Name][m.Name]
			qb, okb := b.Summary[wl.Name][m.Name]
			if !oka || !okb {
				fmt.Fprintf(w, "%-18s %-28s %14s %14s %10s %7.2f  %s\n", wl.Name, m.Name, "-", "-", "-", m.Bound, "unresolved (missing)")
				exit = 1
				continue
			}
			ratio, v := verdict(m, qa, qb)
			fmt.Fprintf(w, "%-18s %-28s %14.4f %14.4f %10.4f %7.2f  %s (%s is better; base of the ratio is %.4f %s)\n",
				wl.Name, m.Name, qa.Median, qb.Median, ratio, m.Bound, v, m.Better, qa.Median, m.Unit)
			if v == "worse" {
				exit = 1
			}
		}
		if b.Failed[wl.Name] > a.Failed[wl.Name] {
			fmt.Fprintf(w, "%-18s failed ops rose from %d to %d: worse\n", wl.Name, a.Failed[wl.Name], b.Failed[wl.Name])
			exit = 1
		}
	}
	return exit
}
