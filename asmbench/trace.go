package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hipmer"
	"hipmer/internal/contig"
	"hipmer/internal/fastq"
	"hipmer/internal/gapclose"
	"hipmer/internal/kanalysis"
	"hipmer/internal/metrics"
	"hipmer/internal/scaffold"
	"hipmer/internal/stats"
	"hipmer/internal/xrt"
)

// layers are the modules the traced run times, in pipeline order. clean
// is contig.ClipTips, contig.PopBubbles and contig.MergeRounds, the
// iterative-k graph cleaning.
var layers = []string{"io", "kanalysis", "contig", "clean", "scaffold", "gapclose"}

// span is one timed interval of the traced run: the whole assembly
// (parent -1), one call into a module's entry point, or the garbage
// collection the tracer forces after a call to measure retained heap.
// Parent is the index of the enclosing span; times are nanoseconds from
// the start of the traced run.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer,omitempty"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// layerStat accumulates every call into one layer.
type layerStat struct {
	wallNs, cpuNs int64
	virtualNs     int64
	allocBytes    uint64
	retainedBytes uint64 // maximum over calls
	comm          xrt.CommStats
	workNs        []float64 // per rank
}

// tracer times calls into module entry points from outside the program:
// wall and CPU time, allocation, virtual time, communication and per-rank
// work deltas around each call, and the live heap after it returns.
type tracer struct {
	team   *xrt.Team
	start  time.Time
	spans  []span
	layers map[string]*layerStat
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), spans: []span{{Name: "assemble", Parent: -1}},
		layers: map[string]*layerStat{}}
}

func (tr *tracer) now() int64 { return time.Since(tr.start).Nanoseconds() }

// call runs fn, one call into layer's entry point name, and records it.
// The call is also bracketed by a team span named after the layer, so the
// module's own sub-spans land under it in the metrics report.
func (tr *tracer) call(layer, name string, fn func()) {
	team := tr.team
	ls := tr.layers[layer]
	if ls == nil {
		ls = &layerStat{workNs: make([]float64, team.Config().Ranks)}
		tr.layers[layer] = ls
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	comm0, v0 := team.AggStats(), team.VirtualNow()
	work0 := make([]float64, len(ls.workNs))
	for i := range work0 {
		work0[i] = team.RankWorkNs(i)
	}
	cpu0 := cpuNs()
	team.BeginSpan(layer)
	s := span{Name: name, Layer: layer, StartNs: tr.now()}
	fn()
	s.EndNs = tr.now()
	team.EndSpan()
	cpu1 := cpuNs()
	runtime.ReadMemStats(&m1)
	tr.spans = append(tr.spans, s)
	ls.wallNs += s.EndNs - s.StartNs
	ls.cpuNs += cpu1 - cpu0
	ls.virtualNs += int64(team.VirtualNow() - v0)
	ls.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	ls.comm.Add(team.AggStats().Sub(comm0))
	for i := range ls.workNs {
		ls.workNs[i] += team.RankWorkNs(i) - work0[i]
	}
	gc := span{Name: "runtime.GC", StartNs: tr.now()}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	gc.EndNs = tr.now()
	tr.spans = append(tr.spans, gc)
	if m1.HeapAlloc > ls.retainedBytes {
		ls.retainedBytes = m1.HeapAlloc
	}
}

// tracedAssembly is the output of one traced run.
type tracedAssembly struct {
	finals, contigs [][]byte
	readCount       int64
	fastqBytes      int64
	kmers, kept     int64
	distinct        uint64
	claimed         int64
	aborted         int64
	gaps, closed    int
	report          *metrics.Report
}

// tracedAssemble reproduces hipmer.Assemble for the options the
// benchmark's workloads use (no checkpointing, faults or oracle) by
// calling each module's public entry point in the order the pipeline's
// stage registry does, timing every call.
func tracedAssemble(tr *tracer, libs []hipmer.Library, opt hipmer.Options) (*tracedAssembly, error) {
	k := opt.K
	if k == 0 {
		k = 31
	}
	ks := []int{k}
	if len(opt.KmerLens) > 0 {
		ks = opt.KmerLens
		k = ks[len(ks)-1]
	}
	minCount := opt.MinCount
	if minCount <= 0 {
		minCount = 2
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	team := xrt.NewTeam(xrt.Config{Ranks: opt.Ranks, RanksPerNode: opt.RanksPerNode, Seed: seed})
	tr.team = team
	p := opt.Ranks
	out := &tracedAssembly{}

	var readLibs []scaffold.ReadLib
	merged := make([][]fastq.Record, p)
	var ioErr error
	tr.call("io", "fastq.OpenSplit+ReadPart", func() {
		for _, lib := range libs {
			fl, err := fastq.OpenSplit(lib.Path, p)
			if err != nil {
				ioErr = fmt.Errorf("opening %s: %w", lib.Path, err)
				return
			}
			parts := make([][]fastq.Record, p)
			errs := make([]error, p)
			team.Run(func(r *xrt.Rank) {
				parts[r.ID], errs[r.ID] = fl.ReadPart(r.ID)
				r.ChargeIORead(fl.PartBytes(r.ID))
			})
			fl.Close()
			for _, err := range errs {
				if err != nil {
					ioErr = fmt.Errorf("reading %s: %w", lib.Path, err)
					return
				}
			}
			repairPairs(parts)
			out.fastqBytes += fl.Size
			readLibs = append(readLibs, scaffold.ReadLib{Name: lib.Name, ReadsByRank: parts, InsertHint: lib.InsertMean})
		}
		for _, rl := range readLibs {
			for r := range merged {
				merged[r] = append(merged[r], rl.ReadsByRank[r]...)
				out.readCount += int64(len(rl.ReadsByRank[r]))
			}
		}
	})
	if ioErr != nil {
		return nil, ioErr
	}

	var ka *kanalysis.Result
	var ctgs *contig.Result
	var carried []*contig.Contig
	for round, rk := range ks {
		kopt := kanalysis.Options{K: rk, MinCount: minCount, HeavyHitters: !opt.DisableHeavyHitters}
		tr.call("kanalysis", "kanalysis.Run", func() {
			if round > 0 {
				kopt.PseudoByRank = pseudoByRank(p, carried)
			}
			ka = kanalysis.Run(team, merged, kopt)
		})
		out.kmers += ka.TotalKmers
		out.kept += ka.Kept
		out.distinct += ka.DistinctEstimate
		tr.call("contig", "contig.Run", func() { ctgs = contig.Run(team, ka.Table, contig.Options{K: rk}) })
		out.claimed += ctgs.Claimed
		out.aborted += ctgs.Aborted
		if len(opt.KmerLens) == 0 {
			break
		}
		copt := contig.CleanOptions{K: rk}
		tr.call("clean", "contig.ClipTips", func() { contig.ClipTips(team, ctgs, copt) })
		tr.call("clean", "contig.PopBubbles", func() { contig.PopBubbles(team, ctgs, copt) })
		tr.call("clean", "contig.MergeRounds", func() {
			carried, _ = contig.MergeRounds(team, carried, ctgs, ks[0], rk)
			ctgs = contig.ResultFromContigs(team, carried)
		})
	}
	for _, c := range ctgs.All() {
		out.contigs = append(out.contigs, c.Seq)
	}

	if opt.ContigsOnly {
		out.finals = out.contigs
	} else {
		var sr *scaffold.Result
		tr.call("scaffold", "scaffold.Run", func() {
			sr = scaffold.Run(team, ctgs, ka.Table, readLibs, scaffold.Options{K: k})
		})
		var gr *gapclose.Result
		tr.call("gapclose", "gapclose.Run", func() {
			gr = gapclose.Run(team, sr, readLibs, gapclose.Options{K: k, KmerTable: ka.Table})
		})
		out.finals = gr.ScaffoldSeqs
		out.gaps, out.closed = gr.Gaps, gr.Closed
	}
	tr.spans[0].EndNs = tr.now()
	out.report = metrics.FromTeam(team)
	return out, nil
}

// pseudoByRank deals the carried contigs round-robin into per-rank
// pseudo-read lists, as the pipeline's iterative-k loop does.
func pseudoByRank(p int, carried []*contig.Contig) [][]kanalysis.PseudoRead {
	prs := make([][]kanalysis.PseudoRead, p)
	for i, c := range carried {
		prs[i%p] = append(prs[i%p], kanalysis.PseudoRead{Seq: c.Seq, Weight: c.PseudoWeight})
	}
	return prs
}

// repairPairs moves a mate-2 read that starts a part back to the part
// holding its mate 1, as the pipeline's io stage does after splitting a
// FASTQ file by byte range.
func repairPairs(parts [][]fastq.Record) {
	for i := 1; i < len(parts); i++ {
		if len(parts[i]) == 0 || !hasSuffix(parts[i][0].ID, "/2") {
			continue
		}
		j := i - 1
		for j >= 0 && len(parts[j]) == 0 {
			j--
		}
		if j < 0 {
			continue
		}
		first, last := parts[i][0], parts[j][len(parts[j])-1]
		if hasSuffix(last.ID, "/1") && len(last.ID) == len(first.ID) &&
			string(last.ID[:len(last.ID)-1]) == string(first.ID[:len(first.ID)-1]) {
			parts[j] = append(parts[j], first)
			parts[i] = parts[i][1:]
		}
	}
}

func hasSuffix(id []byte, suf string) bool { return strings.HasSuffix(string(id), suf) }

// layerMetrics turns a traced run into the per-layer metrics, named
// <layer>.<metric>. Layers a workload never calls report zeros.
func layerMetrics(tr *tracer, ta *tracedAssembly) map[string]float64 {
	const mb = 1 << 20
	l := func(name string) *layerStat {
		if ls := tr.layers[name]; ls != nil {
			return ls
		}
		return &layerStat{}
	}
	m := map[string]float64{}
	for _, name := range layers {
		ls := l(name)
		m[name+".wall_s"] = float64(ls.wallNs) / 1e9
		m[name+".cpu_s"] = float64(ls.cpuNs) / 1e9
		m[name+".virtual_s"] = float64(ls.virtualNs) / 1e9
		m[name+".alloc_mb"] = float64(ls.allocBytes) / mb
		m[name+".retained_mb"] = float64(ls.retainedBytes) / mb
		m[name+".msgs"] = float64(ls.comm.Msgs())
		m[name+".onnode_mb"] = float64(ls.comm.OnNodeBytes) / mb
		m[name+".offnode_mb"] = float64(ls.comm.OffNodeBytes) / mb
		m[name+".imbalance"] = stats.NewDist(ls.workNs).MaxOverMean
	}
	m["io.mb_per_s"] = ratio(float64(ta.fastqBytes)/mb, float64(l("io").wallNs)/1e9)
	m["kanalysis.kmers_per_s"] = ratio(float64(ta.kmers), float64(l("kanalysis").wallNs)/1e9)
	m["kanalysis.kept_frac"] = ratio(float64(ta.kept), float64(ta.distinct))
	m["kanalysis.sketch.wall_s"] = subStage(ta.report, "kanalysis/sketch").wall
	m["kanalysis.bloom.wall_s"] = subStage(ta.report, "kanalysis/bloom-screen").wall
	m["kanalysis.count.wall_s"] = subStage(ta.report, "kanalysis/count").wall
	m["contig.abort_frac"] = ratio(float64(ta.aborted), float64(ta.claimed))
	m["contig.cache_hit_rate"] = l("contig").comm.CacheHitRate()
	m["contig.offnode_lookup_frac"] = l("contig").comm.OffNodeLookupFrac()
	m["contig.traverse.virtual_s"] = subStage(ta.report, "contig/traverse").virtual
	m["scaffold.reads_per_s"] = ratio(float64(ta.readCount), float64(l("scaffold").wallNs)/1e9)
	m["scaffold.cache_hit_rate"] = l("scaffold").comm.CacheHitRate()
	aln := subStage(ta.report, "scaffold/merAligner")
	m["scaffold.meraligner.wall_s"] = aln.wall
	m["scaffold.meraligner.virtual_s"] = aln.virtual
	m["gapclose.closed_frac"] = ratio(float64(ta.closed), float64(ta.gaps))
	return m
}

type stageTime struct{ wall, virtual float64 }

// subStage sums, over every call, the wall and virtual time of a module's
// own sub-span, read from the program's hipmer-metrics/v1 report.
func subStage(rep *metrics.Report, path string) stageTime {
	var t stageTime
	for _, st := range rep.Stages {
		if st.Path == path {
			t.wall += float64(st.WallNs) / 1e9
			t.virtual += float64(st.VirtualNs) / 1e9
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// coverage is the share of the traced run's wall time that layer calls
// and the tracer's own garbage collections account for.
func coverage(spans []span) (layerShare, gcShare float64) {
	total := float64(spans[0].EndNs - spans[0].StartNs)
	var lay, gc int64
	for _, s := range spans[1:] {
		if s.Layer != "" {
			lay += s.EndNs - s.StartNs
		} else {
			gc += s.EndNs - s.StartNs
		}
	}
	return float64(lay) / total, float64(gc) / total
}
