package main

// metricDef describes one metric the benchmark prints: its unit, how it is
// measured, and — for per-layer metrics — which end-to-end metric it should
// move on which workload, and where it should stay put.
type metricDef struct {
	Name       string `json:"name"`
	Unit       string `json:"unit"`
	MeasuredAs string `json:"measured_as"`
	Moves      string `json:"moves,omitempty"`
	StaysOn    string `json:"should_not_move,omitempty"`
}

// endToEnd are measured with tracing off; every workload prints all of
// them. The times are at reference speed: each raw time multiplied by the
// run's host speed, refNominal over the reference kernel's mean wall time
// sampled through the run (reference.go), so that a host running slower or
// faster for minutes does not move them. The raw times are printed under
// the metrics and kept in each results file.
var endToEnd = []metricDef{
	{"setup_s", "s", "median time from workload start until the first job can be sent (prove: check subjects built; serve: the daemon opened on a fresh data directory and started; encode: the seeded permutations drawn), over several set-ups per run, at reference speed", "", ""},
	{"wall_s", "s", "median wall time to finish the workload's fixed job list (one pass), at reference speed", "", ""},
	{"job_s_p50", "s", "median time to a verdict per job over every untraced pass (prove: one proof; encode: one encode plus its decode; serve: one submit-to-terminal-status round trip as the client sees it), at reference speed", "", ""},
	{"job_s_p95", "s", "95th percentile of the per-job times; where two passes of the job list leave fewer than ten samples above it (prove, encode), the highest quantile with ten above in two passes, not below the median; at reference speed", "", ""},
	{"peak_rss_mib", "MiB", "median over untraced passes of the process's peak resident memory (VmHWM, reset at each pass start); includes the reference kernel's fixed 4 MiB table per worker", "", ""},
}

// perLayer come from the spans of the traced passes and the layer probe.
// Totals are per traced pass unless the name says otherwise.
var perLayer = []metricDef{
	{"check.ns_per_state", "ns/state", "summed span time of the exhaustive mutual-exclusion and RME check calls / returned states", "prove wall_s, peak_rss_mib", "encode"},
	{"check.states", "count", "states returned by every check-layer call in a pass", "prove wall_s, peak_rss_mib", "encode"},
	{"check.allocs_per_state", "allocs/state", "runtime/metrics heap-object delta around the exhaustive check calls / returned states", "prove wall_s, peak_rss_mib", "encode"},
	{"check.bytes_per_state", "B/state", "runtime/metrics heap-byte delta around the exhaustive check calls / returned states", "prove wall_s, peak_rss_mib", "encode"},
	{"check.por_ratio", "ratio", "unreduced states / reduced states, summed over the POR jobs", "prove wall_s", "serve, encode"},
	{"check.steals", "count", "check.Result.Engine steals summed over the work-stealing proofs of a pass", "prove wall_s", "serve (workers=1), encode"},
	{"check.parks", "count", "check.Result.Engine parks summed over the work-stealing proofs of a pass", "prove wall_s", "serve (workers=1), encode"},
	{"check.cpu_per_wall", "ratio", "process CPU time / wall time over the work-stealing proof spans", "prove wall_s", "serve (workers=1), encode"},
	{"check.fcfs_ns_per_state", "ns/state", "FCFS check span time / returned product states", "prove wall_s", "serve, encode"},
	{"check.liveness_ns_per_state", "ns/state", "liveness check span time / returned states", "prove wall_s", "serve, encode"},
	{"machine.step_undo_ns", "ns", "layer probe: one Config.StepUndo plus Undo.Revert per enabled element at seeded reachable configurations of the prove subjects", "prove wall_s", "encode"},
	{"machine.key_encode_ns", "ns", "layer probe: one KeyEncoder.AppendStateBytes", "prove wall_s", "encode"},
	{"machine.key_bytes", "B", "layer probe: mean state-key encoding length", "prove wall_s", "encode"},
	{"machine.hash_ns", "ns", "layer probe: one HashStateKey", "prove wall_s", "encode"},
	{"machine.visited_insert_ns", "ns", "layer probe: VisitedSet.TryVisitBatch time per key inserted into a fresh set", "prove wall_s", "encode"},
	{"machine.allocs_per_step", "allocs", "layer probe: heap allocations per StepUndo plus Revert", "prove wall_s", "encode"},
	{"lang.clone_ns", "ns", "layer probe: one ProcState.Clone", "prove wall_s", "encode"},
	{"lang.append_key_ns", "ns", "layer probe: one ProcState.AppendStateKey", "prove wall_s", "encode"},
	{"lang.allocs_per_clone", "allocs", "layer probe: heap allocations per ProcState.Clone", "prove wall_s", "encode"},
	{"machine.fingerprint_ns", "ns", "layer probe: one Config.Fingerprint at seeded reachable configurations of the encode systems", "encode wall_s, job_s_p50", "prove, serve"},
	{"core.s_per_iteration", "s", "EncodePermutationCtx span time / construction iterations", "encode wall_s, job_s_p50", "prove, serve"},
	{"core.decode_s", "s", "mean RecoverPermutationFromCode span time per encode job", "encode wall_s, job_s_p50", "prove, serve"},
	{"core.iterations", "count", "EncodingReport.Iterations summed over a pass (exact for a seed)", "encode wall_s, job_s_p50", "prove, serve"},
	{"core.bits", "count", "EncodingReport.BitLen summed over a pass (exact for a seed)", "encode wall_s, job_s_p50", "prove, serve"},
	{"serve.submit_ms_p50", "ms", "median POST /v1/jobs span", "serve job_s_p50, job_s_p95", "prove, encode"},
	{"serve.queue_wait_ms_p50", "ms", "median job Started - Submitted over jobs that ran", "serve job_s_p50, job_s_p95", "prove, encode"},
	{"serve.queue_wait_ms_p95", "ms", "95th percentile of job Started - Submitted", "serve job_s_p50, job_s_p95", "prove, encode"},
	{"serve.run_ms_p50", "ms", "median job Finished - Started", "serve job_s_p50, job_s_p95", "prove, encode"},
	{"serve.overhead_ms_p50", "ms", "median client round trip - job run time, for the submitter of each job that ran", "serve job_s_p50, job_s_p95", "prove, encode"},
	{"serve.outbox_append_ms", "ms", "layer probe: Outbox.Append (journal write and fsync) on a scratch directory", "serve job_s_p50", "prove, encode"},
	{"serve.cache_hit_frac", "frac", "submissions answered from the result cache / submissions; the same on every seed, as every repeat finds its first reply cached", "", ""},
	{"serve.dedup_frac", "frac", "submissions joined to an in-flight identical job / submissions; 0 while the one closed-loop client waits for each reply before the next submission", "", ""},
	{"supervise.attempts_per_job", "count", "supervised attempts per check job that ran (job Attempts)", "serve job_s_p50", "prove, encode"},
	{"supervise.checkpoints_per_job", "count", "checkpoints written per check job that ran (Attempt.Checkpoints)", "serve job_s_p50", "prove, encode"},
	{"synth.run_s", "s", "mean synth job run time (Finished - Started)", "serve job_s_p95", "prove, encode"},
	{"synth.oracle_calls", "count", "SynthOutcome.OracleCalls per synth job", "serve job_s_p95", "prove, encode"},
	{"synth.oracle_states", "count", "SynthOutcome.OracleStates per synth job", "serve job_s_p95", "prove, encode"},
	{"synth.prune_frac", "frac", "1 - oracle calls / candidates over the synth jobs", "serve job_s_p95", "prove, encode"},
	{"proc.cpu_s", "s", "process CPU seconds per traced pass", "wall_s, peak_rss_mib on each workload", ""},
	{"proc.gc_cycles", "count", "GC cycles per traced pass", "wall_s, peak_rss_mib on each workload", ""},
	{"proc.alloc_mib", "MiB", "heap MiB allocated per traced pass", "wall_s, peak_rss_mib on each workload", ""},
	{"proc.steal_frac", "frac", "CPU steal time / (wall time x nproc) over traced passes: host contention, which slows every raw time without any program change", "", ""},
	{"trace.overhead_frac", "frac", "median traced pass wall time / median untraced pass wall time in the same run - 1", "", ""},
}
