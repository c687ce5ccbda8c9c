// Command alignbench drives the multiple-sequence-alignment experiments
// (E11, E15): native wall-clock speedup, simulated motif comparison and
// alignment quality.
//
// Usage:
//
//	alignbench [-n seqs] [-len seqLen] [-seed N] [-mode native|sim|quality|both]
//	alignbench -trace out.json [-n seqs] [-len seqLen] [-seed N]
//	alignbench -fasta in.fa
//	alignbench -pipeline URL|self [-n seqs] [-len seqLen] [-band N] [-group N] [-stage-delay-us N] [-memo BYTES]
//
// With -trace, alignbench runs one simulated Tree-Reduce-2 family
// alignment with structured tracing on and writes the event stream as a
// Chrome trace_event file (open in chrome://tracing or Perfetto).
//
// With -pipeline, alignbench submits one streaming pipeline job (filter →
// align → reduce → report) to motifd ("self" hosts one in-process, with a
// -memo cache of that many bytes) and follows its NDJSON stream,
// reporting time-to-first-record against total elapsed — the streaming
// pipeline's defining advantage over a batch job.
//
// Load generation against motifd and motifctl lives in perfbench (its own
// module, see perfbench/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bio"
	"repro/internal/cmdutil"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/motifs"
	"repro/internal/skel"
	"repro/internal/strand"
	"repro/internal/trace"
)

func main() {
	n := flag.Int("n", 24, "number of sequences in the synthetic family")
	seqLen := flag.Int("len", 120, "ancestral sequence length")
	seed := cmdutil.Seed(7)
	mode := flag.String("mode", "both", "native (wall-clock skeleton), sim (motif simulator), quality, or both")
	fasta := flag.String("fasta", "", "align the sequences in this FASTA file and print the alignment (overrides -mode)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON of one simulated alignment run to this file (overrides -mode)")
	pipelineURL := flag.String("pipeline", "", "run one streaming pipeline job against the motifd at this URL (\"self\" hosts one in-process); overrides -mode")
	group := flag.Int("group", 8, "reduce-stage window for -pipeline jobs")
	stageDelay := flag.Int64("stage-delay-us", 0, "per-record report-stage delay for -pipeline (µs; makes streaming visible)")
	band := flag.Int("band", 0, "band half-width for -pipeline align and reduce stages (0 = exact alignment)")
	memoBytes := cmdutil.MemoBytes(0)
	flag.Parse()

	if *pipelineURL != "" {
		if err := runPipeline(*pipelineURL, *n, *seqLen, *seed, *band, *group, *stageDelay, *memoBytes); err != nil {
			fatal(err)
		}
		return
	}

	if *traceFile != "" {
		if err := runTraced(*traceFile, *n, *seqLen, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *fasta != "" {
		f, err := os.Open(*fasta)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		fam, err := bio.ReadFasta(f)
		if err != nil {
			fatal(err)
		}
		aln, _, err := bio.AlignFamily(context.Background(), fam, skel.ReduceOptions{Workers: 4, Mapper: skel.MapRandom, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		if err := bio.WriteAlignedFasta(os.Stdout, aln, fam.Names); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "aligned %d sequences, %d columns, SP identity %.3f\n",
			len(aln), aln.Width(), aln.SPIdentity())
		return
	}

	if *mode == "quality" || *mode == "both" {
		tab, err := exp.E15AlignmentQuality(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== E15: alignment quality vs divergence ==\n%s\n", tab)
	}

	if *mode == "native" || *mode == "both" {
		tab, err := exp.E11AlignmentSpeedup(*n, *seqLen, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== E11a: native alignment speedup (%d sequences, len %d) ==\n%s\n", *n, *seqLen, tab)
	}
	if *mode == "sim" || *mode == "both" {
		// The simulator interprets every reduction; keep the instance small.
		sn, sl := *n, *seqLen
		if sn > 12 {
			sn = 12
		}
		if sl > 48 {
			sl = 48
		}
		tab, err := exp.E11AlignmentSimulated(sn, sl, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== E11b: simulated motif comparison (%d sequences, len %d) ==\n%s\n", sn, sl, tab)
	}
}

// runTraced aligns a small synthetic family under Tree-Reduce-2 on the
// simulator with tracing enabled, writing the Chrome trace and printing the
// run's structural summaries. The simulator interprets every reduction, so
// the instance is capped to keep the traced run quick.
func runTraced(file string, n, seqLen int, seed int64) error {
	if n > 12 {
		n = 12
	}
	if seqLen > 48 {
		seqLen = 48
	}
	fam, err := bio.Evolve(n, seqLen, 0.08, 0.01, seed)
	if err != nil {
		return err
	}
	guide, err := bio.GuideTree(fam)
	if err != nil {
		return err
	}
	seqTree := bio.SeqTree(guide, fam)

	ring := trace.NewRing(0)
	chrome := trace.NewChrome()
	procs := 4
	cfg := motifs.RunConfig{
		Procs:   procs,
		Seed:    seed,
		Natives: map[string]strand.NativeFn{"eval/4": bio.EvalNative()},
		Tracer:  trace.Multi(ring, chrome),
	}
	_, res, err := motifs.RunTreeReduce2("", seqTree, motifs.SiblingLabels, cfg)
	if err != nil {
		return fmt.Errorf("traced TR2 alignment: %w", err)
	}

	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if _, err := chrome.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	met := res.Metrics
	fmt.Printf("traced tree-reduce-2 alignment of %d sequences (len %d) on %d procs\n%s\n\n", n, seqLen, procs, met)
	fmt.Printf("busy/idle timeline (makespan %d cycles):\n%s\n",
		met.Makespan, metrics.BusyTimeline(ring.Events(), procs, met.Makespan, 72))
	fmt.Printf("wrote %s: %d trace events (reductions %d + messages %d)\n",
		file, chrome.EventCount(), met.TotalReductions(), met.Messages)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alignbench:", err)
	os.Exit(1)
}
