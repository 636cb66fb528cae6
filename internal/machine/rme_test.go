package machine

import (
	"strings"
	"testing"

	"tradingfences/internal/lang"
)

// Tests for the RME-facing machine extensions: the TAS primitive, the
// recoverable crash-restart semantics, per-passage RMR accounting, and
// the state-key treatment of recovered processes.

// recoverable builds a program with a recovery section, resume point and
// durable-local set, for crash-restart tests.
func recoverable(name string, body, rec []lang.Stmt, resumeAt int, durable ...string) *lang.Program {
	p := lang.NewProgram(name, body...)
	p.Recovery = rec
	p.ResumeAt = resumeAt
	p.Durable = durable
	return p
}

// TestTASAtomicSemantics: a TAS on a free register takes it and binds 0;
// a TAS on a taken register leaves it and binds the holder's value.
func TestTASAtomicSemantics(t *testing.T) {
	// Each process publishes the old value its TAS observed into its own
	// segment so the test can read it back from shared memory.
	p0 := lang.NewProgram("t0",
		lang.Tas("a", lang.I(100), lang.I(7)),
		lang.Write(lang.I(0), lang.Add(lang.L("a"), lang.I(1))),
		lang.Fence(),
		lang.Return(lang.I(0)),
	)
	p1 := lang.NewProgram("t1",
		lang.Tas("b", lang.I(100), lang.I(9)),
		lang.Write(lang.I(10), lang.Add(lang.L("b"), lang.I(1))),
		lang.Fence(),
		lang.Return(lang.I(0)),
	)
	c, _ := mkConfig(t, SC, p0, p1)

	rec, took, err := c.Step(PBottom(0))
	if err != nil || !took {
		t.Fatalf("p0 tas: took=%v err=%v", took, err)
	}
	if rec.Kind != StepTas || rec.Reg != 100 || rec.Val != 0 {
		t.Fatalf("p0 tas record = %+v, want tas(R100)=0", rec)
	}
	if c.Register(100) != 7 {
		t.Fatalf("R100 = %d after winning TAS, want 7", c.Register(100))
	}

	rec, took, err = c.Step(PBottom(1))
	if err != nil || !took {
		t.Fatalf("p1 tas: took=%v err=%v", took, err)
	}
	if rec.Kind != StepTas || rec.Val != 7 {
		t.Fatalf("p1 tas record = %+v, want observed old 7", rec)
	}
	if c.Register(100) != 7 {
		t.Fatalf("failed TAS overwrote the register: R100 = %d", c.Register(100))
	}

	// Drain both publications and check the bound locals: p0 saw 0, p1
	// saw 7 (+1 bias so "saw 0" is distinguishable from "not yet run").
	for _, e := range []Elem{PBottom(0), PBottom(0), PBottom(1), PBottom(1)} {
		if _, _, err := c.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Register(0); got != 1 {
		t.Errorf("p0 bound old = %d, want 0", got-1)
	}
	if got := c.Register(10); got != 8 {
		t.Errorf("p1 bound old = %d, want 7", got-1)
	}

	// The trace prints TAS steps with their own verb.
	tr := NewTrace()
	c2, _ := mkConfig(t, SC, p0)
	c2.SetTrace(tr)
	if _, _, err := c2.Step(PBottom(0)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Format(nil), "tas(") {
		t.Errorf("trace does not show the tas step:\n%s", tr.Format(nil))
	}
}

// TestTASDrainsBufferFirst: like a fence, a pending TAS forces the write
// buffer to drain before the atomic step itself can run (rule 3).
func TestTASDrainsBufferFirst(t *testing.T) {
	prog := lang.NewProgram("d",
		lang.Write(lang.I(101), lang.I(5)),
		lang.Tas("a", lang.I(100), lang.I(1)),
		lang.Return(lang.I(0)),
	)
	c, _ := mkConfig(t, PSO, prog)
	if _, took, err := c.Step(PBottom(0)); err != nil || !took {
		t.Fatalf("write: %v %v", took, err)
	}
	rec, took, err := c.Step(PBottom(0))
	if err != nil || !took || rec.Kind != StepCommit || rec.Reg != 101 {
		t.Fatalf("pre-TAS step = %+v, want commit of the buffered R101 write", rec)
	}
	if c.Register(100) != 0 {
		t.Fatal("TAS executed before the buffer drained")
	}
	rec, took, err = c.Step(PBottom(0))
	if err != nil || !took || rec.Kind != StepTas {
		t.Fatalf("post-drain step = %+v, want the tas", rec)
	}
	if c.Register(100) != 1 {
		t.Fatalf("R100 = %d after TAS", c.Register(100))
	}
}

// TestTASAccountedAsCommit: under CC accounting a TAS is priced by the
// last-committer rule — remote on first touch and on every inter-process
// handoff, including a *failed* TAS (it still takes the line
// exclusively); local when repeated by the same process.
func TestTASAccountedAsCommit(t *testing.T) {
	mk := func() *Config {
		spin := func() *lang.Program {
			return lang.NewProgram("s",
				lang.Tas("a", lang.I(100), lang.I(1)),
				lang.Tas("b", lang.I(100), lang.I(1)),
				lang.Return(lang.I(0)),
			)
		}
		c, _ := mkConfig(t, SC, spin(), spin())
		c.SetAccounting(CC)
		return c
	}

	// Same process twice: first remote (no last committer), second local.
	c := mk()
	for i := 0; i < 2; i++ {
		if _, took, err := c.Step(PBottom(0)); err != nil || !took {
			t.Fatalf("step %d: %v %v", i, took, err)
		}
	}
	if got := c.Stats().RMRs[0]; got != 1 {
		t.Errorf("back-to-back TAS by one process: RMRs = %d, want 1", got)
	}

	// Alternating processes: every TAS is a handoff, all four remote —
	// and p1's are failed TASes, still charged.
	c = mk()
	for i := 0; i < 4; i++ {
		if _, took, err := c.Step(PBottom(i % 2)); err != nil || !took {
			t.Fatalf("step %d: %v %v", i, took, err)
		}
	}
	st := c.Stats()
	if st.RMRs[0] != 2 || st.RMRs[1] != 2 {
		t.Errorf("alternating TAS RMRs = %d,%d, want 2,2", st.RMRs[0], st.RMRs[1])
	}
}

// TestCrashRestartRecoverable: a crash of a recoverable process keeps the
// durable locals, drops the volatile ones, runs the recovery section, and
// then resumes the body at ResumeAt instead of restarting cold.
func TestCrashRestartRecoverable(t *testing.T) {
	prog := recoverable("r",
		[]lang.Stmt{
			lang.Read("d", lang.I(100)), // durable
			lang.Read("v", lang.I(101)), // volatile
			lang.Write(lang.I(0), lang.Add(lang.Add(lang.L("d"), lang.L("v")), lang.L("rec"))),
			lang.Fence(),
			lang.Return(lang.I(0)),
		},
		[]lang.Stmt{lang.Read("rec", lang.I(102))},
		2, // resume at the publishing write
		"d",
	)
	c, _ := mkConfig(t, SC, prog)
	c.SetRegister(100, 5)
	c.SetRegister(101, 30)
	c.SetRegister(102, 200)

	// Read both, then crash: d survives, v is lost.
	sched := Schedule{PBottom(0), PBottom(0), PCrash(0)}
	if n, err := c.Exec(sched); err != nil || n != 3 {
		t.Fatalf("Exec = %d, %v", n, err)
	}
	if c.Crashed(0) != 1 {
		t.Fatalf("Crashed = %d", c.Crashed(0))
	}
	// Recovery read, then the resumed write + fence + return.
	if _, err := c.Exec(Schedule{PBottom(0), PBottom(0), PBottom(0), PBottom(0)}); err != nil {
		t.Fatal(err)
	}
	if !c.Halted(0) {
		t.Fatal("process did not halt after recovery + resume")
	}
	// d=5 survived, v lost to 0, rec=200 from recovery: sum 205. A cold
	// restart would have re-read everything (235); resuming without
	// recovery would publish 35.
	if got := c.Register(0); got != 205 {
		t.Fatalf("published %d, want 205 (durable 5 + volatile 0 + recovery 200)", got)
	}
}

// TestCrashUnsettledEqualsSettled: a crash strikes the settled process.
// Crashing a process whose pending local computation assigns a durable
// local gives the same configuration as crashing it after NextOp — the
// durable value survives either way — under Step and under StepUndo, and
// reverting the crash restores the pre-crash state.
func TestCrashUnsettledEqualsSettled(t *testing.T) {
	prog := recoverable("r",
		[]lang.Stmt{
			lang.Read("v", lang.I(100)),
			lang.Assign("d", lang.Add(lang.L("v"), lang.I(1))), // durable, local computation
			lang.Read("w", lang.I(101)),
			lang.Return(lang.I(0)),
		},
		[]lang.Stmt{lang.Read("rec", lang.I(102))},
		2,
		"d",
	)
	mk := func() *Config {
		c, _ := mkConfig(t, SC, prog)
		c.SetRegister(100, 6)
		step(t, c, PBottom(0)) // read v; the assignment to d is pending
		return c
	}
	settled := mk()
	if _, _, err := settled.NextOp(0); err != nil {
		t.Fatal(err)
	}
	step(t, settled, PCrash(0))
	want := key(t, settled)
	if got := settled.Proc(0).Local("d"); got != 7 {
		t.Fatalf("durable d = %d after a settled crash, want 7", got)
	}

	unsettled := mk()
	step(t, unsettled, PCrash(0))
	if got := key(t, unsettled); got != want {
		t.Fatalf("crashing an unsettled process keys %s, settled crash %s", got, want)
	}

	before := key(t, mk())
	undo := mk()
	_, took, u, err := undo.StepUndo(PCrash(0))
	if err != nil || !took {
		t.Fatalf("StepUndo crash: took=%v err=%v", took, err)
	}
	if got := key(t, undo); got != want {
		t.Fatalf("StepUndo crash keys %s, settled crash %s", got, want)
	}
	u.Revert()
	if got := key(t, undo); got != before {
		t.Fatalf("reverted crash keys %s, pre-crash state %s", got, before)
	}
}

// TestCrashRestartNonRecoverableUnchanged: without a recovery section the
// crash semantics are the original cold restart.
func TestCrashRestartNonRecoverableUnchanged(t *testing.T) {
	prog := lang.NewProgram("cold",
		lang.Read("x", lang.I(100)),
		lang.Return(lang.I(0)),
	)
	c, _ := mkConfig(t, SC, prog)
	if _, err := c.Exec(Schedule{PBottom(0), PCrash(0)}); err != nil {
		t.Fatal(err)
	}
	op, ok, err := c.NextOp(0)
	if err != nil || !ok || op.Kind != lang.OpRead || op.Reg != 100 {
		t.Fatalf("post-crash NextOp = %v %v %v, want the first read again", op, ok, err)
	}
}

// TestFaultPlanInstrumentSameIndex is the regression test for the
// Instrument ordering fix: two crash points at the same schedule index
// must weave deterministically by process id, whatever order the plan
// lists them in (plans assembled from map iteration used to leak that
// order into the instrumented schedule).
func TestFaultPlanInstrumentSameIndex(t *testing.T) {
	sched := Schedule{PBottom(0), PBottom(1)}
	a := &FaultPlan{Crashes: []CrashPoint{{P: 1, At: 1}, {P: 0, At: 1}}}
	b := &FaultPlan{Crashes: []CrashPoint{{P: 0, At: 1}, {P: 1, At: 1}}}
	got, mirror := a.Instrument(sched).String(), b.Instrument(sched).String()
	if got != mirror {
		t.Fatalf("listing order leaked into the weave: %q vs %q", got, mirror)
	}
	if want := "p0 p0! p1! p1"; got != want {
		t.Fatalf("instrumented = %q, want %q", got, want)
	}
}

// passageLayout allocates a probe pair and a data register and returns
// the configuration with passages enabled.
func passageConfig(t *testing.T, model Model, prog func(enter, exit, data Reg) *lang.Program) (*Config, *PassageLog) {
	t.Helper()
	lay := NewLayout()
	probes := lay.MustAlloc("probe", 2, Unowned)
	data := lay.MustAlloc("data", 1, Unowned)
	p := prog(probes.At(0), probes.At(1), data.At(0))
	c, err := NewConfig(model, lay, []*lang.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	log := NewPassageLog()
	c.EnablePassages(PassageProbes{Enter: probes.At(0), Exit: probes.At(1)}, log)
	return c, log
}

// TestPassageAccountingWindow: reads between the probe pair are charged
// under both rules (CC: cache misses; DSM: out-of-segment), the probe
// reads themselves are free, and the exit read closes and records.
func TestPassageAccountingWindow(t *testing.T) {
	c, log := passageConfig(t, SC, func(enter, exit, data Reg) *lang.Program {
		return lang.NewProgram("p",
			lang.Read("_in", lang.I(lang.Value(enter))),
			lang.Read("x", lang.I(lang.Value(data))),
			lang.Read("y", lang.I(lang.Value(data))), // cache hit: CC-free, DSM-charged
			lang.Read("_out", lang.I(lang.Value(exit))),
			lang.Return(lang.I(0)),
		)
	})
	for i := 0; i < 4; i++ {
		if _, took, err := c.Step(PBottom(0)); err != nil || !took {
			t.Fatalf("step %d: %v %v", i, took, err)
		}
	}
	st := log.Snapshot()
	if st.Count != 1 {
		t.Fatalf("Count = %d, want 1", st.Count)
	}
	if st.MaxCC != 1 || st.MaxDSM != 2 {
		t.Errorf("MaxCC=%d MaxDSM=%d, want 1 and 2 (one miss, two out-of-segment)", st.MaxCC, st.MaxDSM)
	}
	if got := c.PassageStats(); got != st {
		t.Errorf("Config.PassageStats = %+v, want %+v", got, st)
	}
}

// TestPassageSurvivesCrash: a crash inside an open passage does not close
// it — recovery steps are charged to the same passage, and the single
// closure carries the combined super-passage cost (the quantity the
// Chan–Woelfel bound is stated against).
func TestPassageSurvivesCrash(t *testing.T) {
	c, log := passageConfig(t, SC, func(enter, exit, data Reg) *lang.Program {
		return recoverable("p",
			[]lang.Stmt{
				lang.Read("_in", lang.I(lang.Value(enter))),
				lang.Read("x", lang.I(lang.Value(data))),
				lang.Read("_out", lang.I(lang.Value(exit))),
				lang.Return(lang.I(0)),
			},
			[]lang.Stmt{lang.Read("r", lang.I(lang.Value(data)))},
			1, // resume at the data read
		)
	})
	// open, charge one data read, crash mid-passage.
	if _, err := c.Exec(Schedule{PBottom(0), PBottom(0), PCrash(0)}); err != nil {
		t.Fatal(err)
	}
	if st := log.Snapshot(); st.Count != 0 {
		t.Fatalf("crash closed the passage: Count = %d", st.Count)
	}
	// recovery read (cache is cold again: CC-charged), resumed data read
	// (now a hit), exit, return.
	if _, err := c.Exec(Schedule{PBottom(0), PBottom(0), PBottom(0), PBottom(0)}); err != nil {
		t.Fatal(err)
	}
	st := log.Snapshot()
	if st.Count != 1 {
		t.Fatalf("Count = %d, want exactly one super-passage", st.Count)
	}
	// CC: pre-crash miss + post-crash recovery miss = 2 (the resumed read
	// hits the recovered cache line). DSM: all three data reads.
	if st.MaxCC != 2 || st.MaxDSM != 3 {
		t.Errorf("super-passage MaxCC=%d MaxDSM=%d, want 2 and 3", st.MaxCC, st.MaxDSM)
	}
}

// TestPassageUndoRevert: StepUndo/Revert restores the open-window flag
// and the in-flight counters; the log's recorded watermark is a monotone
// high-water mark over everything explored and is deliberately NOT
// reverted.
func TestPassageUndoRevert(t *testing.T) {
	c, log := passageConfig(t, SC, func(enter, exit, data Reg) *lang.Program {
		return lang.NewProgram("p",
			lang.Read("_in", lang.I(lang.Value(enter))),
			lang.Read("x", lang.I(lang.Value(data))),
			lang.Read("_out", lang.I(lang.Value(exit))),
			lang.Return(lang.I(0)),
		)
	})
	// Open the window and charge the data read.
	if _, err := c.Exec(Schedule{PBottom(0), PBottom(0)}); err != nil {
		t.Fatal(err)
	}
	// Step across the closing read, then revert it.
	_, took, u, err := c.StepUndo(PBottom(0))
	if err != nil || !took {
		t.Fatalf("close step: %v %v", took, err)
	}
	if st := log.Snapshot(); st.Count != 1 || st.MaxDSM != 1 {
		t.Fatalf("close did not record: %+v", st)
	}
	u.Revert()
	// The watermark survives the revert (monotone over the spanning tree)…
	if st := log.Snapshot(); st.Count != 1 {
		t.Fatalf("revert rolled back the watermark: %+v", st)
	}
	// …but the live window state is restored: closing again records a
	// second passage with the same in-flight counters.
	if _, took, err := c.Step(PBottom(0)); err != nil || !took {
		t.Fatalf("re-close: %v %v", took, err)
	}
	st := log.Snapshot()
	if st.Count != 2 || st.SumDSM != 2 {
		t.Fatalf("re-closed stats = %+v, want Count 2, SumDSM 2", st)
	}
}

// TestPassageCloneIsolation: cloning a configuration with passages
// enabled deep-copies the per-process window state (a BFS frontier's
// clones must not share open/counter arrays) while sharing the log.
func TestPassageCloneIsolation(t *testing.T) {
	c, log := passageConfig(t, SC, func(enter, exit, data Reg) *lang.Program {
		return lang.NewProgram("p",
			lang.Read("_in", lang.I(lang.Value(enter))),
			lang.Read("x", lang.I(lang.Value(data))),
			lang.Read("_out", lang.I(lang.Value(exit))),
			lang.Return(lang.I(0)),
		)
	})
	if _, err := c.Exec(Schedule{PBottom(0), PBottom(0)}); err != nil {
		t.Fatal(err)
	}
	cl := c.Clone()
	// Finish the passage on the clone only.
	if _, took, err := cl.Step(PBottom(0)); err != nil || !took {
		t.Fatalf("clone close: %v %v", took, err)
	}
	if st := log.Snapshot(); st.Count != 1 {
		t.Fatalf("clone does not share the log: %+v", st)
	}
	// The original's window is still open; closing it records again.
	if _, took, err := c.Step(PBottom(0)); err != nil || !took {
		t.Fatalf("original close: %v %v", took, err)
	}
	if st := log.Snapshot(); st.Count != 2 {
		t.Fatalf("original window state was aliased by the clone: %+v", st)
	}
}

// TestStateKeyUnderRecovery is the codec-distinctness property for
// recovered processes: a process that crashed and completed recovery
// keys identically to a never-crashed process at the same control
// location iff their durable state agrees — and differently while still
// inside the recovery section or when a volatile local was lost.
func TestStateKeyUnderRecovery(t *testing.T) {
	prog := func() *lang.Program {
		return recoverable("k",
			[]lang.Stmt{
				lang.Read("d", lang.I(100)),
				lang.Fence(),
				lang.Return(lang.I(0)),
			},
			[]lang.Stmt{lang.Fence()},
			1,
			"d",
		)
	}
	// fresh runs the read with R100=v and then zeroes the register so
	// memory cannot mask local differences.
	fresh := func(v lang.Value) *Config {
		c, _ := mkConfig(t, SC, prog())
		c.SetRegister(100, v)
		step(t, c, PBottom(0))
		c.SetRegister(100, 0)
		return c
	}
	// recovered additionally crashes and completes the recovery fence,
	// landing at the same control location (Body[1]) as fresh.
	recovered := func(v lang.Value) *Config {
		c, _ := mkConfig(t, SC, prog())
		c.SetRegister(100, v)
		step(t, c, PBottom(0))
		step(t, c, PCrash(0))
		step(t, c, PBottom(0)) // the recovery fence
		c.SetRegister(100, 0)
		return c
	}

	if key(t, fresh(5)) != key(t, recovered(5)) {
		t.Error("equal durable state: recovered process keys apart from the fresh one")
	}
	if key(t, fresh(5)) == key(t, recovered(7)) {
		t.Error("differing durable locals collide across recovery")
	}
	if key(t, recovered(5)) == key(t, recovered(7)) {
		t.Error("recovered processes with different durable locals collide")
	}

	// Mid-recovery is a distinct control location.
	mid := func(v lang.Value) *Config {
		c, _ := mkConfig(t, SC, prog())
		c.SetRegister(100, v)
		step(t, c, PBottom(0))
		step(t, c, PCrash(0))
		c.SetRegister(100, 0)
		return c
	}
	if key(t, mid(5)) == key(t, fresh(5)) {
		t.Error("process inside its recovery section keys like one past it")
	}

	// A lost volatile local separates the keys even at the same control
	// location with equal durable state.
	vol := func() *lang.Program {
		return recoverable("kv",
			[]lang.Stmt{
				lang.Read("d", lang.I(100)),
				lang.Read("x", lang.I(101)),
				lang.Fence(),
				lang.Return(lang.I(0)),
			},
			[]lang.Stmt{lang.Fence()},
			2,
			"d",
		)
	}
	cf, _ := mkConfig(t, SC, vol())
	cf.SetRegister(101, 9)
	step(t, cf, PBottom(0))
	step(t, cf, PBottom(0))
	cf.SetRegister(101, 0)
	cr, _ := mkConfig(t, SC, vol())
	cr.SetRegister(101, 9)
	step(t, cr, PBottom(0))
	step(t, cr, PBottom(0))
	step(t, cr, PCrash(0))
	step(t, cr, PBottom(0))
	cr.SetRegister(101, 0)
	if key(t, cf) == key(t, cr) {
		t.Error("a volatile local lost to the crash is invisible to the key")
	}
}
