package main

import (
	"fmt"
	"os"
	"path/filepath"

	"hipmer"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/xrt"
)

// libSpec names one read library of a workload and its insert size; the
// library is written to <dir>/<name>.fastq during set-up.
type libSpec struct {
	name   string
	insert int
}

// dataset is a generated workload input: the reference sequences the
// reads were simulated from (one per species for a metagenome) and the
// reads of each library, in the order of workload.libs.
type dataset struct {
	refs  [][]byte
	reads [][]fastq.Record
}

// workload is one benchmark input: a generator driven by the benchmark's
// seed and the assembler options it is run with. Sizes are those of the
// experiment suite's default scale (expt.SmallScale).
type workload struct {
	name string
	opt  hipmer.Options
	libs []libSpec
	gen  func(seed int64) dataset
	// inputs is how many sequencing runs one benchmark run generates and
	// assembles; quality and virtual time are medians over them. More
	// than one where they vary most between read sets.
	inputs int
}

// organismSeed fixes each workload's genome (the experiment suite's
// seed); the benchmark's seed drives the sequencing run simulated from
// it: read positions, inserts and errors. A run then measures one
// organism's assembly, not the spread between random genomes.
const organismSeed = 20151115

var workloads = []workload{
	{
		// The paper's headline pipeline: every layer runs, and about 10%
		// of traversal claims abort, so schedule-dependent traversal
		// shows here.
		name:   "human-p32",
		opt:    hipmer.Options{K: 31, MinCount: 3, Ranks: 32, RanksPerNode: 8},
		libs:   []libSpec{{"human395", 395}},
		inputs: 1,
		gen: func(seed int64) dataset {
			org := xrt.NewPrng(organismSeed)
			g := genome.HumanLike(org, 250000)
			hap2 := genome.Mutate(org, g, 0.001)
			recs, _ := genome.SimulatePairs(xrt.NewPrng(seed), g, genome.SimOptions{
				Coverage:   30,
				Lib:        genome.Library{Name: "human395", ReadLen: 101, InsertMean: 395, InsertSD: 30},
				Err:        genome.DefaultErrorModel(),
				Haplotypes: [][]byte{hap2},
			})
			return dataset{refs: [][]byte{g}, reads: [][]fastq.Record{recs}}
		},
	},
	{
		// Thousands of heavy hitters, three libraries for scaffolding,
		// single-rank gap closing, and memory dominated by rank count.
		name: "wheat-p384",
		opt:  hipmer.Options{K: 31, MinCount: 3, Ranks: 384, RanksPerNode: 24},
		libs: []libSpec{{"wheat500", 500}, {"wheat1k", 1000}, {"wheat4k", 4200}},
		// One read set's virtual time moves by about 10% between seeds
		// (gap closing on one rank dominates it); three read sets damp it.
		inputs: 3,
		gen: func(seed int64) dataset {
			g := genome.WheatLike(xrt.NewPrng(organismSeed), 150000)
			rng := xrt.NewPrng(seed)
			ds := dataset{refs: [][]byte{g}}
			for _, l := range []struct {
				lib genome.Library
				cov float64
			}{
				{genome.Library{Name: "wheat500", ReadLen: 150, InsertMean: 500, InsertSD: 40}, 25 * 0.7},
				{genome.Library{Name: "wheat1k", ReadLen: 100, InsertMean: 1000, InsertSD: 80}, 25 * 0.2},
				{genome.Library{Name: "wheat4k", ReadLen: 100, InsertMean: 4200, InsertSD: 300}, 25 * 0.1},
			} {
				recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
					Coverage: l.cov, Lib: l.lib, Err: genome.DefaultErrorModel(),
				})
				ds.reads = append(ds.reads, recs)
			}
			return ds
		},
	},
	{
		// Iterative k with k above 32 and pseudo-read ingestion; never
		// scaffolds, so scaffolding changes must not move it.
		name: "meta-multik",
		opt: hipmer.Options{KmerLens: []int{21, 33, 55}, MinCount: 2, ContigsOnly: true,
			Ranks: 32, RanksPerNode: 8},
		libs:   []libSpec{{"wetland", 300}},
		inputs: 1,
		gen: func(seed int64) dataset {
			gs, abundance := genome.Metagenome(xrt.NewPrng(organismSeed), 150000, 40)
			recs := genome.SimulateMetagenome(xrt.NewPrng(seed), gs, abundance, 25000,
				genome.Library{Name: "wetland", ReadLen: 100, InsertMean: 300, InsertSD: 30},
				genome.DefaultErrorModel())
			ds := dataset{reads: [][]fastq.Record{recs}}
			for _, g := range gs {
				ds.refs = append(ds.refs, g.Seq)
			}
			return ds
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// libraries returns the workload's read libraries as FASTQ paths in dir,
// the only input the assembler receives.
func (w workload) libraries(dir string) []hipmer.Library {
	out := make([]hipmer.Library, len(w.libs))
	for i, l := range w.libs {
		out[i] = hipmer.Library{Name: l.name, Path: filepath.Join(dir, l.name+".fastq"), InsertMean: l.insert}
	}
	return out
}

// minK is the smallest k-mer length the workload assembles at, the
// length at which every contig k-mer must occur in the reads.
func (w workload) minK() int {
	if len(w.opt.KmerLens) > 0 {
		return w.opt.KmerLens[0]
	}
	return w.opt.K
}

// writeDataset writes every library of ds as FASTQ into dir.
func (w workload) writeDataset(ds dataset, dir string) error {
	if len(ds.reads) != len(w.libs) {
		return fmt.Errorf("%s: generator made %d libraries, want %d", w.name, len(ds.reads), len(w.libs))
	}
	for i, l := range w.libraries(dir) {
		if err := writeFastq(l.Path, ds.reads[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeFastq(path string, recs []fastq.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fastq.Write(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
