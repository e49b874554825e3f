package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hipmer"
	"hipmer/internal/fastq"
	"hipmer/internal/pipeline"
)

// tinyWorkloads are scaled-down versions of the benchmark's two pipeline
// shapes: a single-k assembly through scaffolding and gap closing, and an
// iterative-k contigs-only one.
var tinyWorkloads = []workload{
	{
		name: "single-k",
		opt:  hipmer.Options{K: 31, MinCount: 2, Ranks: 8, RanksPerNode: 4},
		libs: []libSpec{{"human395", 395}},
		gen: func(seed int64) dataset {
			ref, libs := pipeline.SimulatedHuman(seed, 20000, 20)
			return dataset{refs: [][]byte{ref}, reads: [][]fastq.Record{libs[0].Records}}
		},
	},
	{
		name: "multi-k",
		opt: hipmer.Options{KmerLens: []int{21, 33, 55}, MinCount: 2, ContigsOnly: true,
			Ranks: 8, RanksPerNode: 4},
		libs: []libSpec{{"wetland", 300}},
		gen: func(seed int64) dataset {
			_, libs := pipeline.SimulatedMetagenomeRefs(seed, 20000, 5, 2000)
			return dataset{reads: [][]fastq.Record{libs[0].Records}}
		},
	},
}

// writeTiny generates w's input into a fresh directory.
func writeTiny(t *testing.T, w workload) string {
	t.Helper()
	dir := t.TempDir()
	if err := w.writeDataset(w.gen(7), dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTracedRunReproducesAssemble pins that the traced pipeline's call
// sequence yields byte-for-byte the scaffolds and contigs of
// hipmer.Assemble on the same input.
func TestTracedRunReproducesAssemble(t *testing.T) {
	for _, w := range tinyWorkloads {
		t.Run(w.name, func(t *testing.T) {
			dir := writeTiny(t, w)
			res, err := hipmer.Assemble(w.libraries(dir), w.opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Scaffolds) == 0 {
				t.Fatal("empty assembly")
			}
			want := filepath.Join(dir, "assemble")
			if err := writeOutputs(want, res.Scaffolds, res.ContigSeqs); err != nil {
				t.Fatal(err)
			}
			ta, err := tracedAssemble(newTracer(), w.libraries(dir), w.opt)
			if err != nil {
				t.Fatal(err)
			}
			got := filepath.Join(dir, "traced")
			if err := writeOutputs(got, ta.finals, ta.contigs); err != nil {
				t.Fatal(err)
			}
			for _, ext := range []string{".fasta", ".contigs.fasta"} {
				if !bytes.Equal(readFile(t, got+ext), readFile(t, want+ext)) {
					t.Errorf("traced %s differs from hipmer.Assemble's", ext)
				}
			}
		})
	}
}

// TestTracedSpans checks the span tree: one root, and every other span a
// child of it that lies inside it.
func TestTracedSpans(t *testing.T) {
	w := tinyWorkloads[1]
	tr := newTracer()
	if _, err := tracedAssemble(tr, w.libraries(writeTiny(t, w)), w.opt); err != nil {
		t.Fatal(err)
	}
	root := tr.spans[0]
	if root.Parent != -1 || root.EndNs <= root.StartNs {
		t.Fatalf("bad root span %+v", root)
	}
	calls := map[string]int{}
	for _, s := range tr.spans[1:] {
		if s.Parent != 0 || s.StartNs < root.StartNs || s.EndNs > root.EndNs || s.EndNs < s.StartNs {
			t.Errorf("span %+v is not inside the root", s)
		}
		calls[s.Layer]++
	}
	// io once; per round one analysis, one traversal and three cleaning
	// calls; no scaffolding in contigs-only mode.
	want := map[string]int{"io": 1, "kanalysis": 3, "contig": 3, "clean": 9, "": 16}
	for l, n := range want {
		if calls[l] != n {
			t.Errorf("layer %q: %d calls, want %d", l, calls[l], n)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the names test reads.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricNamesInBenchmarkJSON checks that the metrics the benchmark
// emits, with their units, are exactly those BENCHMARK.json declares, and
// that its workloads are the ones defined here.
func TestMetricNamesInBenchmarkJSON(t *testing.T) {
	var spec benchmarkSpec
	if err := json.Unmarshal(readFile(t, "../BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	check := func(kind string, emitted map[string]float64, decl map[string]string) {
		for name := range emitted {
			unit, ok := decl[name]
			if !ok {
				t.Errorf("%s metric %q is not in BENCHMARK.json", kind, name)
			} else if unit != unitOf(name) {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, name, unitOf(name), unit)
			}
		}
		for name := range decl {
			if _, ok := emitted[name]; !ok {
				t.Errorf("%s metric %q in BENCHMARK.json is never emitted", kind, name)
			}
		}
	}
	w := tinyWorkloads[0]
	tr := newTracer()
	ta, err := tracedAssemble(tr, w.libraries(writeTiny(t, w)), w.opt)
	if err != nil {
		t.Fatal(err)
	}
	trec := &traceRecord{Metrics: layerMetrics(tr, ta)}
	in := &input{runs: []runRecord{{}}}
	check("end-to-end", endToEnd([]*input{in}, []float64{1}, trec), declared(spec.EndToEnd))
	check("per-layer", perLayer(trec, in), declared(spec.PerLayer))

	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("BENCHMARK.json workloads %v, defined %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("BENCHMARK.json workloads %v, defined %v", got, want)
			break
		}
	}
}
