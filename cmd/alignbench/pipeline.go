package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// runPipeline drives one streaming pipeline job — filter → align → reduce →
// report over a synthetic family — against a motifd instance (target "self"
// hosts one in-process), following the NDJSON stream as stages produce
// records. The interesting quantity is time-to-first-record versus total
// elapsed: a streaming pipeline delivers its first result while later
// stages are still working, where a batch job delivers nothing until
// everything is done.
func runPipeline(target string, n, seqLen int, seed int64, band, group int, delayUS int64, memoBytes int64) error {
	base := target
	if target == "self" {
		s := serve.New(serve.Config{Seed: seed, MemoBytes: memoBytes})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: s.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		defer func() {
			httpSrv.Close()
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(sctx)
		}()
		base = "http://" + ln.Addr().String()
	}

	spec := &pipeline.Spec{
		N: n, Len: seqLen, Seed: seed,
		Stages: []pipeline.StageSpec{
			{Name: "filter", MinLen: 1},
			{Name: "align", Band: band},
			{Name: "reduce", Group: group, Band: band},
			{Name: "report", DelayMicros: delayUS},
		},
	}
	body, err := json.Marshal(serve.JobRequest{Type: serve.JobPipeline, Pipeline: spec})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	client := serve.NewClient[serve.JobStatus](base, nil)
	start := time.Now()
	st, err := client.Submit(ctx, body)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	stream, err := client.Stream(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer stream.Close()
	var (
		firstAt time.Duration
		lines   int
		summary pipeline.Record
	)
	sc := bufio.NewScanner(stream)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if lines == 0 {
			firstAt = time.Since(start)
		}
		lines++
		var rec pipeline.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("stream line %d: %w", lines, err)
		}
		if rec.Kind == "summary" {
			summary = rec
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	total := time.Since(start)
	if lines == 0 {
		return fmt.Errorf("stream delivered no records")
	}

	// The stream has ended, so the job is terminal; fetch its stage table.
	if st, err = client.Status(ctx, st.ID); err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}

	fmt.Printf("== pipeline: %d-seq family (len %d) through filter|align|reduce(%d)|report against %s ==\n",
		n, seqLen, group, base)
	if st.Pipeline != nil {
		tab := metrics.NewTable("stage", "in", "out", "dropped", "resumed")
		for _, sr := range st.Pipeline.Stages {
			tab.AddRow(sr.Name, sr.In, sr.Out, sr.Dropped, sr.Resumed)
		}
		fmt.Print(tab.String())
		if st.Pipeline.ResumedStages > 0 || st.Pipeline.MemoStages > 0 {
			fmt.Printf("resumed %d stages from checkpoints; %d stage outputs memoized\n",
				st.Pipeline.ResumedStages, st.Pipeline.MemoStages)
		}
	}
	fmt.Printf("streamed %d records (%d groups, mean identity %.3f)\n",
		lines, summary.Groups, summary.MeanIdentity)
	fmt.Printf("first record after %.1fms, stream complete after %.1fms (first result at %.0f%% of total)\n",
		ms(firstAt), ms(total), 100*ms(firstAt)/ms(total))
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
