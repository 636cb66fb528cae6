package main

import (
	"context"
	"fmt"
	"slices"

	tf "tradingfences"
)

var encodeWorkload = &workload{
	name: "encode",
	why:  "the paper's Section 5 encoder and decoder round-tripping seeded permutations; core's decode loop works and every explorer optimisation is bypassed",
	setup: func(r *runner) (*pass, error) {
		// Drawing the permutations is all that precedes the first job: the
		// encoder and the decoder each build their own system.
		rng := seedRand(r.seed)
		jobs := encodeJobs(r.small)
		for i := range jobs {
			jobs[i].pi = tf.RandomPerm(jobs[i].n, rng.Int63())
			jobs[i].want = slices.Clone(jobs[i].pi)
		}
		if r.corrupt {
			w := jobs[0].want
			w[0], w[1] = w[1], w[0] // a deliberately wrong known answer
		}
		return &pass{
			run: func(r *runner, span int) []jobResult {
				out := make([]jobResult, 0, len(jobs)+1)
				for i := range jobs {
					out = append(out, r.timeJob(jobs[i].name(), span, jobs[i].run))
				}
				return append(out, r.timeJob("sweep GT_f n=256", span, runSweep))
			},
			close: func() error { return nil },
		}, nil
	},
	probe:  encodeProbe,
	layers: encodeLayers,
}

// encodeJob encodes the Count object over one lock for a seeded random
// permutation, decodes the code back, and must recover the permutation.
type encodeJob struct {
	spec     tf.LockSpec
	n        int
	pi, want tf.Permutation
}

func encodeJobs(small bool) []encodeJob {
	bakery, tour := tf.LockSpec{Kind: tf.Bakery}, tf.LockSpec{Kind: tf.Tournament}
	gt2, gt3 := tf.LockSpec{Kind: tf.GT, F: 2}, tf.LockSpec{Kind: tf.GT, F: 3}
	if small {
		return []encodeJob{{spec: bakery, n: 4}, {spec: gt2, n: 4}, {spec: tour, n: 4}}
	}
	// Encode time depends on the permutation, by up to 2x for gt3 and the
	// tournament, so the pass is laid out by rank: the nine fastest jobs
	// (gt3 and the tournament at small n, bakery at n=16 and 20, the
	// sweep) stay below the median, bakery at n=27, whose time hardly
	// depends on the permutation, takes the middle ranks, and the slowest
	// nine are gt2 at n=24, whose times are similar. So job_s_p50 falls
	// inside the bakery block and job_s_p95 (the 0.8 quantile here) inside
	// the gt2 block, and neither rests on the few permutations of the most
	// permutation-sensitive locks.
	var jobs []encodeJob
	add := func(spec tf.LockSpec, n, perms int) {
		for k := 0; k < perms; k++ {
			jobs = append(jobs, encodeJob{spec: spec, n: n})
		}
	}
	add(bakery, 16, 3)
	add(bakery, 20, 1)
	add(gt3, 10, 2)
	add(tour, 12, 2)
	add(bakery, 27, 7)
	add(gt2, 24, 9)
	return jobs
}

func (j *encodeJob) name() string { return fmt.Sprintf("encode %v n=%d", j.spec, j.n) }

func (j *encodeJob) run(r *runner, span, job int) error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var rep *tf.EncodingReport
	err := r.call("tradingfences.EncodePermutationCtx", span, job, func() (map[string]float64, error) {
		var err error
		rep, err = tf.EncodePermutationCtx(ctx, j.spec, tf.Count, j.pi, tf.Budget{})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"iterations": float64(rep.Iterations), "bits": float64(rep.BitLen)}, nil
	})
	if err != nil {
		return err
	}
	var got tf.Permutation
	err = r.call("tradingfences.RecoverPermutationFromCode", span, job, func() (map[string]float64, error) {
		var err error
		got, err = tf.RecoverPermutationFromCode(j.spec, tf.Count, j.n, rep.Code, rep.BitLen)
		return nil, err
	})
	if err != nil {
		return err
	}
	if !slices.Equal(got, j.want) {
		return fmt.Errorf("recovered %v, want %v", got, j.want)
	}
	return nil
}

// e3RMRs is the EXPERIMENTS.md E3 table: worst per-passage RMRs of GT_f at
// n = 256 for f = 1..8. Fences are exactly 4f.
var e3RMRs = []int64{512, 65, 44, 35, 44, 41, 48, 39}

func runSweep(r *runner, span, job int) error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var pts []tf.SweepPoint
	err := r.call("tradingfences.TradeoffSweepCtx", span, job, func() (map[string]float64, error) {
		var err error
		pts, err = tf.TradeoffSweepCtx(ctx, 256)
		return map[string]float64{"points": float64(len(pts))}, err
	})
	if err != nil {
		return err
	}
	if len(pts) != len(e3RMRs) {
		return fmt.Errorf("%d sweep points, want %d", len(pts), len(e3RMRs))
	}
	for i, p := range pts {
		f := int64(i + 1)
		if p.Fences != 4*f || p.RMRs != e3RMRs[i] {
			return fmt.Errorf("GT_%d: fences %d RMRs %d, want %d and %d", f, p.Fences, p.RMRs, 4*f, e3RMRs[i])
		}
	}
	return nil
}

func encodeLayers(spans []Span, passes int) map[string]float64 {
	enc := spansNamed(spans, "tradingfences.EncodePermutationCtx")
	dec := spansNamed(spans, "tradingfences.RecoverPermutationFromCode")
	n := float64(passes)
	fp, _ := perCall(spans, "machine.Config.Fingerprint")
	return map[string]float64{
		"core.s_per_iteration":   ratio(sumDur(enc), sumCount(enc, "iterations")),
		"core.decode_s":          ratio(sumDur(dec), float64(len(dec))),
		"core.iterations":        ratio(sumCount(enc, "iterations"), n),
		"core.bits":              ratio(sumCount(enc, "bits"), n),
		"machine.fingerprint_ns": fp,
	}
}
