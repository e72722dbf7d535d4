package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the
// program's own tables equal: same workloads, same metrics, same
// units and directions, in the same order.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, file []benchMetric, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(prog))
		}
		for i, m := range file {
			if m.Name != prog[i].name || m.Unit != prog[i].unit || m.Better != better(prog[i].higher) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, prog[i])
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndMetrics, true)
	same("per_layer", bf.PerLayer, perLayerMetrics, false)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

func checkMetrics(t *testing.T, res result, want []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case v.Unit != m.unit:
			t.Errorf("metric %s has unit %q, want %q", m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s is %v", m.name, v.Value)
		}
	}
}

func empty(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d entries left behind in %s, first %s", len(left), dir, left[0].Name())
	}
}

// TestSmoke runs every workload end to end, and one traced pass, at
// the smoke scale.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			tmp := t.TempDir()
			res, err := run(ctx, options{workload: name, seed: 1, seconds: 0.4, smoke: true, tmp: tmp, log: &log})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEndMetrics)
			empty(t, tmp)
			if t.Failed() {
				t.Log(log.String())
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		var log bytes.Buffer
		tmp, out := t.TempDir(), t.TempDir()
		res, err := run(ctx, options{workload: "kv-small-remote", seed: 1, seconds: 0.6, trace: true, smoke: true, tmp: tmp, traceDir: out, log: &log})
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, perLayerMetrics)
		empty(t, tmp)
		if st, err := os.Stat(filepath.Join(out, "trace-kv-small-remote.json")); err != nil || st.Size() == 0 {
			t.Errorf("no span file: %v", err)
		}
		for _, want := range []string{"layer table kv-small-remote", "reconciliation kv-small-remote", "trace_overhead_frac"} {
			if !bytes.Contains(log.Bytes(), []byte(want)) {
				t.Errorf("traced report lacks %q", want)
			}
		}
		if t.Failed() {
			t.Log(log.String())
		}
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartilesOf([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 {
		t.Errorf("got %+v", q)
	}
}

func TestVerdicts(t *testing.T) {
	lower := benchMetric{Name: "read_p50_us", Better: "lower", Bound: 0.1}
	higher := benchMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	tight := func(m float64) quartiles { return quartiles{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 3} }
	loose := func(m float64) quartiles { return quartiles{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 3} }
	for _, c := range []struct {
		m    benchMetric
		a, b quartiles
		want string
	}{
		{lower, tight(100), tight(105), "same"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{lower, loose(100), tight(115), "unresolved"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: got %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	bf := &benchmarkFile{
		Workloads: []benchWorkload{{Name: "w"}},
		EndToEnd:  []benchMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}},
	}
	set := func(v float64, failed int64) *runSet {
		s := newRunSet()
		for i := 0; i < 3; i++ {
			s.add("w", result{Failed: failed, Metrics: map[string]value{"ops_per_s": {v, "1/s"}}})
		}
		s.summarize()
		return s
	}
	var out bytes.Buffer
	if code := compareSets(&out, bf, set(100, 0), set(101, 0)); code != 0 {
		t.Errorf("same: exit %d\n%s", code, out.String())
	}
	if code := compareSets(&out, bf, set(100, 0), set(80, 0)); code != 1 {
		t.Errorf("worse: exit %d", code)
	}
	if code := compareSets(&out, bf, set(100, 0), set(100, 1)); code != 1 {
		t.Errorf("more failures: exit %d", code)
	}
}
