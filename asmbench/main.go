// Command asmbench is the repository's benchmark. For one workload and
// seed it generates the inputs, assembles them repeatedly with
// hipmer.Assemble for a fixed time, each assembly in a fresh process,
// assembles once more through the traced pipeline (trace.go), which times
// each call into a module's public entry point, checks every output, and
// prints the end-to-end metrics, or with -trace 1 the per-layer ones. See
// README.md.
//
//	bash asmbench/run.sh --workload human-p32 --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hipmer"
	"hipmer/internal/fasta"
	"hipmer/internal/stats"
	"hipmer/internal/verify"
)

// setupReps is how many times each input is generated and written; the
// median over all of them is setup_s.
const setupReps = 3

// runBudget bounds one benchmark run: assemblies in flight when it
// expires are killed and count as failed.
const runBudget = 170 * time.Second

func main() {
	wname := flag.String("workload", "", "workload: human-p32, wheat-p384, meta-multik, or all of them in turn")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 15, "measure for this many seconds")
	trace := flag.Int("trace", 0, "1: report the traced run's per-layer metrics instead of the end-to-end ones")
	work := flag.String("work", ".bench_build", "directory for inputs, outputs and spans")
	child := flag.String("child", "", "internal: assemble or trace once in this process")
	dir := flag.String("dir", "", "internal: the child's input directory")
	out := flag.String("out", "", "internal: the child's output path prefix")
	flag.Parse()

	if *wname == "all" && *child == "" {
		// One result line per workload, in order.
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "asmbench: workload %s\n", w.name)
			printResult(w, *seed, *seconds, *trace == 1, *work)
		}
		return
	}
	w, err := findWorkload(*wname)
	if err != nil {
		fatal(err)
	}
	switch *child {
	case "":
		printResult(w, *seed, *seconds, *trace == 1, *work)
	case "assemble", "trace":
		var rec any
		if *child == "assemble" {
			rec, err = childAssemble(w, *dir, *out)
		} else {
			rec, err = childTrace(w, *dir, *out)
		}
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -child %q", *child))
	}
}

// printResult makes one benchmark run and prints its result line.
func printResult(w workload, seed int64, seconds int, trace bool, work string) {
	res, err := bench(w, seed, seconds, trace, work)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asmbench:", err)
	os.Exit(1)
}

// runRecord is what an untraced assembly process reports.
type runRecord struct {
	WallS            float64 `json:"wall_s"`
	CPUS             float64 `json:"cpu_s"`
	VirtualS         float64 `json:"virtual_s"`
	AllocMB          float64 `json:"alloc_mb"`
	PeakRSSMB        float64 `json:"peak_rss_mb"`
	TraverseVirtualS float64 `json:"traverse_virtual_s"`
}

// traceRecord is what the traced assembly process reports.
type traceRecord struct {
	WallS      float64            `json:"wall_s"`
	LayerShare float64            `json:"layer_share"`
	GCShare    float64            `json:"gc_share"`
	Metrics    map[string]float64 `json:"metrics"`
}

// childAssemble runs hipmer.Assemble once on the FASTQ files in dir and
// writes the scaffolds to out.fasta and the contigs to out.contigs.fasta.
func childAssemble(w workload, dir, out string) (*runRecord, error) {
	libs := w.libraries(dir)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNs()
	t0 := time.Now()
	res, err := hipmer.Assemble(libs, w.opt)
	wall := time.Since(t0)
	cpu := cpuNs() - cpu0
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	rec := &runRecord{
		WallS:     wall.Seconds(),
		CPUS:      float64(cpu) / 1e9,
		VirtualS:  float64(res.Metrics.VirtualNs) / 1e9,
		AllocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		PeakRSSMB: peakRSSMB(),
	}
	for _, st := range res.Metrics.Stages {
		if strings.HasPrefix(st.Path, "contig-generation") && strings.HasSuffix(st.Path, "/traverse") {
			rec.TraverseVirtualS += float64(st.VirtualNs) / 1e9
		}
	}
	if err := writeOutputs(out, res.Scaffolds, res.ContigSeqs); err != nil {
		return nil, err
	}
	return rec, nil
}

// childTrace assembles once through the traced pipeline, writes its
// outputs like childAssemble and its spans to out.spans.json.
func childTrace(w workload, dir, out string) (*traceRecord, error) {
	tr := newTracer()
	ta, err := tracedAssemble(tr, w.libraries(dir), w.opt)
	if err != nil {
		return nil, err
	}
	if err := writeOutputs(out, ta.finals, ta.contigs); err != nil {
		return nil, err
	}
	spans, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(out+".spans.json", spans, 0o644); err != nil {
		return nil, err
	}
	lay, gc := coverage(tr.spans)
	return &traceRecord{
		WallS:      float64(tr.spans[0].EndNs-tr.spans[0].StartNs) / 1e9,
		LayerShare: lay,
		GCShare:    gc,
		Metrics:    layerMetrics(tr, ta),
	}, nil
}

func writeOutputs(out string, finals, contigs [][]byte) error {
	var buf bytes.Buffer
	if err := (&hipmer.Result{Scaffolds: finals}).WriteFasta(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(out+".fasta", buf.Bytes(), 0o644); err != nil {
		return err
	}
	buf.Reset()
	if err := (&hipmer.Result{Scaffolds: contigs}).WriteFasta(&buf); err != nil {
		return err
	}
	return os.WriteFile(out+".contigs.fasta", buf.Bytes(), 0o644)
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// output is one finished assembly process's files.
type output struct {
	prefix string
	fasta  [32]byte // sha256 of the scaffolds FASTA
	ctgs   [32]byte // sha256 of the contigs FASTA
}

// input is one generated input of a benchmark run and what became of it.
type input struct {
	dir  string
	ds   dataset
	runs []runRecord
	outs []output
	// ref is the most common output of the input's assemblies, the one
	// the others must equal; n50, meanLen and covered are its quality.
	ref     output
	n50     int
	meanLen float64
	covered float64
}

// bench is one benchmark run: set-up, the timed untraced assemblies, the
// traced assembly, and the output checks.
func bench(w workload, seed int64, seconds int, trace bool, work string) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(work, "data", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(base)

	inputs := make([]*input, w.inputs)
	for i := range inputs {
		inputs[i] = &input{dir: filepath.Join(base, fmt.Sprintf("input%d", i))}
		if err := os.MkdirAll(inputs[i].dir, 0o755); err != nil {
			return nil, err
		}
	}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		for i, in := range inputs {
			t0 := time.Now()
			in.ds = w.gen(seed*int64(w.inputs) + int64(i))
			if err := w.writeDataset(in.ds, in.dir); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
	}

	res := &result{Metrics: map[string]metric{}}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	// Each input is assembled at least twice, so that byte-identity is
	// checked on every one.
	for i := 0; i < 2*len(inputs) || time.Now().Before(deadline); i++ {
		in := inputs[i%len(inputs)]
		res.Attempted++
		prefix := filepath.Join(in.dir, fmt.Sprintf("run%d", i))
		var rec runRecord
		if err := runChild(ctx, exe, w, "assemble", in.dir, prefix, &rec); err != nil {
			fmt.Fprintf(os.Stderr, "asmbench: %s run %d: %v\n", w.name, i, err)
			res.Failed++
			continue
		}
		o, err := hashOutputs(prefix)
		if err != nil {
			return nil, err
		}
		in.runs = append(in.runs, rec)
		in.outs = append(in.outs, o)
		fmt.Fprintf(os.Stderr, "asmbench: %s run %d (input %d): %+v\n", w.name, i, i%len(inputs), rec)
	}

	// The traced run assembles the first input. Both modes make it: its
	// retained heap is the end-to-end memory metric too.
	res.Attempted++
	prefix := filepath.Join(inputs[0].dir, "traced")
	tr := &traceRecord{}
	var trOut output
	if err := runChild(ctx, exe, w, "trace", inputs[0].dir, prefix, tr); err != nil {
		fmt.Fprintf(os.Stderr, "asmbench: %s traced run: %v\n", w.name, err)
		res.Failed++
		tr = nil
	} else if trOut, err = hashOutputs(prefix); err != nil {
		return nil, err
	}
	if tr != nil {
		spans := filepath.Join(work, "trace", fmt.Sprintf("%s-%d.spans.json", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return nil, err
		}
		if err := os.Rename(prefix+".spans.json", spans); err != nil {
			return nil, err
		}
		if tr.LayerShare < 0.9 {
			fmt.Fprintf(os.Stderr, "asmbench: %s traced run: layers account for %.1f%% of its wall time (forced GC %.1f%%), want at least 90%%\n",
				w.name, 100*tr.LayerShare, 100*tr.GCShare)
			res.Failed++
		}
	}

	// Every assembly of one input must be byte-identical; the most common
	// output is the reference, and no contig may hold a k-mer absent from
	// the reads.
	for i, in := range inputs {
		if len(in.outs) == 0 {
			continue
		}
		in.ref = modeOutput(in.outs)
		checked := in.outs
		if i == 0 && tr != nil {
			checked = append(checked[:len(checked):len(checked)], trOut)
		}
		missing := map[[32]byte]int64{}
		for _, o := range checked {
			if o.fasta != in.ref.fasta {
				fmt.Fprintf(os.Stderr, "asmbench: %s: %s.fasta differs from the other assemblies of its input\n", w.name, o.prefix)
				res.Failed++
			}
			n, ok := missing[o.ctgs]
			if !ok {
				if n, err = missingKmers(o.prefix, in.ds, w.minK()); err != nil {
					return nil, err
				}
				missing[o.ctgs] = n
			}
			if n > 0 {
				fmt.Fprintf(os.Stderr, "asmbench: %s: %s contigs have %d k-mers absent from the reads\n", w.name, o.prefix, n)
				res.Failed++
			}
		}
		if !trace {
			if in.n50, in.meanLen, in.covered, err = quality(in.ref.prefix, in.ds); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "asmbench: %s input %d: N50 %d bp, mean length %.1f bp, reference covered %.4f\n",
				w.name, i, in.n50, in.meanLen, in.covered)
		}
	}
	res.Correct = res.Failed == 0

	var values map[string]float64
	if !trace {
		values = endToEnd(inputs, setups, tr)
	} else if tr != nil {
		values = perLayer(tr, inputs[0])
	}
	for name, v := range values {
		res.Metrics[name] = metric{v, unitOf(name)}
	}
	printTable(res)
	return res, nil
}

// endToEnd is the -trace 0 metric set. Time and allocation are medians
// over every untraced assembly; virtual time (the median per input) and
// quality are medians over the inputs. Peak memory is the largest live
// heap after any layer call of the traced run (zero if it failed): the
// resident-set and live-heap high-water marks of a free-running assembly
// swing by a third between runs of one input at 384 ranks, with when the
// collector happens to run.
func endToEnd(inputs []*input, setups []float64, tr *traceRecord) map[string]float64 {
	var wall, cpu, alloc, virt, meanLen, covered []float64
	for _, in := range inputs {
		if len(in.runs) == 0 {
			continue
		}
		var v []float64
		for _, r := range in.runs {
			wall = append(wall, r.WallS)
			cpu = append(cpu, r.CPUS)
			alloc = append(alloc, r.AllocMB)
			v = append(v, r.VirtualS)
		}
		virt = append(virt, median(v))
		meanLen = append(meanLen, in.meanLen)
		covered = append(covered, in.covered)
	}
	retained := 0.0
	if tr != nil {
		for _, l := range layers {
			retained = max(retained, tr.Metrics[l+".retained_mb"])
		}
	}
	return map[string]float64{
		"wall_s":           median(wall),
		"cpu_s":            median(cpu),
		"virtual_s":        median(virt),
		"alloc_mb":         median(alloc),
		"peak_retained_mb": retained,
		"setup_s":          median(setups),
		"mean_len_bp":      median(meanLen),
		"ref_covered_frac": median(covered),
	}
}

// perLayer is the -trace 1 metric set: the traced run's layer metrics,
// its overhead over the untraced assemblies of the same input, and the
// spread of traversal virtual time over all of that input's assemblies,
// traced one included, which is nonzero while traversal depends on the
// goroutine schedule.
func perLayer(tr *traceRecord, in *input) map[string]float64 {
	walls := make([]float64, len(in.runs))
	trav := []float64{tr.Metrics["contig.traverse.virtual_s"]}
	for i, r := range in.runs {
		walls[i] = r.WallS
		trav = append(trav, r.TraverseVirtualS)
	}
	m := map[string]float64{
		"trace.overhead_s":               tr.WallS - median(walls),
		"contig.traverse.virtual_spread": spread(trav),
	}
	for name, v := range tr.Metrics {
		m[name] = v
	}
	return m
}

// runChild runs one assembly process and decodes the JSON it prints.
func runChild(ctx context.Context, exe string, w workload, mode, dir, prefix string, rec any) error {
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name, "-dir", dir, "-out", prefix)
	cmd.Stderr = os.Stderr
	// The assembly dies with the benchmark, should the benchmark be killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return err
	}
	return json.Unmarshal(stdout, rec)
}

func hashOutputs(prefix string) (output, error) {
	o := output{prefix: prefix}
	b, err := os.ReadFile(prefix + ".fasta")
	if err != nil {
		return o, err
	}
	o.fasta = sha256.Sum256(b)
	if b, err = os.ReadFile(prefix + ".contigs.fasta"); err != nil {
		return o, err
	}
	o.ctgs = sha256.Sum256(b)
	return o, nil
}

// modeOutput returns the first of the most common scaffold outputs.
func modeOutput(outs []output) output {
	count := map[[32]byte]int{}
	best := outs[0]
	for _, o := range outs {
		count[o.fasta]++
		if count[o.fasta] > count[best.fasta] {
			best = o
		}
	}
	return best
}

// missingKmers counts the k-mers of an assembly's contigs that occur in
// no read, at the workload's smallest k.
func missingKmers(prefix string, ds dataset, k int) (int64, error) {
	recs, err := fasta.ReadFile(prefix + ".contigs.fasta")
	if err != nil {
		return 0, err
	}
	contigs := make([][]byte, len(recs))
	for i, r := range recs {
		contigs[i] = r.Seq
	}
	var reads [][]byte
	for _, lib := range ds.reads {
		for _, r := range lib {
			reads = append(reads, r.Seq)
		}
	}
	rep := &verify.Report{}
	verify.CheckSpectrum(rep, contigs, reads, k)
	return rep.MissingKmers, nil
}

// quality computes the assembly's N50, its mean sequence length and the
// share of the reference it covers; for a metagenome the reference is
// every species' genome.
func quality(prefix string, ds dataset) (n50 int, meanLen, covered float64, err error) {
	recs, err := fasta.ReadFile(prefix + ".fasta")
	if err != nil {
		return 0, 0, 0, err
	}
	seqs := make([][]byte, len(recs))
	for i, r := range recs {
		seqs[i] = r.Seq
	}
	var total float64
	for _, ref := range ds.refs {
		covered += stats.Validate(seqs, ref).CoveredFrac * float64(len(ref))
		total += float64(len(ref))
	}
	st := stats.Compute(seqs)
	return st.N50, ratio(float64(st.TotalLen), float64(st.Sequences)), covered / total, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max - min) / median, 0 for identical samples.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return ratio(s[len(s)-1]-s[0], median(s))
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_bp"):
		return "bp"
	case strings.HasSuffix(name, "mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "msgs"):
		return "count"
	case strings.HasSuffix(name, "imbalance"):
		return "ratio"
	default: // _frac, _rate, _spread
		return "frac"
	}
}

// printTable writes the metrics, one per line, to standard error.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  failed/attempted: %d/%d\n", res.Failed, res.Attempted)
}
