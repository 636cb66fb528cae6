package check

import (
	"errors"
	"runtime"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

func progressOf(t *testing.T, name string, ctor locks.Constructor, n int, model machine.Model) *ProgressResult {
	t.Helper()
	s, err := NewMutexSubject(name, ctor, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), model, statesOpt(3_000_000))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The correct locks satisfy both liveness properties under every model.
func TestProgressCorrectLocks(t *testing.T) {
	cases := []struct {
		name string
		ctor locks.Constructor
	}{
		{"bakery", locks.NewBakery},
		{"peterson", locks.NewPeterson},
		{"tournament", locks.NewTournament},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []machine.Model{machine.SC, machine.TSO, machine.PSO} {
				res := progressOf(t, tc.name, tc.ctor, 2, m)
				if !res.Complete {
					t.Fatalf("%v: state space not exhausted (%d states)", m, res.States)
				}
				if !res.DeadlockFree {
					t.Errorf("%v: deadlock/livelock found (witness %d elems): %v", m, len(res.StuckWitness), res)
				}
				if !res.WeakObstructionFree {
					t.Errorf("%v: weak obstruction-freedom refuted (witness %d elems)", m, len(res.WOFWitness))
				}
			}
		})
	}
}

// A deliberately deadlocking "lock": both processes raise their flag and
// wait for the other's flag to drop — a classic deadly embrace. The
// progress checker must find the stuck component (the mutual-wait state
// cannot reach completion).
func TestProgressDetectsDeadlock(t *testing.T) {
	deadlock := func(lay *machine.Layout, name string, n int) (*locks.Algorithm, error) {
		return locks.NewDeadlockDemo(lay, name, n)
	}
	s, err := NewMutexSubject("deadlock", deadlock, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), machine.PSO, statesOpt(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("state space not exhausted: %d states", res.States)
	}
	if res.DeadlockFree {
		t.Fatal("deadly-embrace lock reported deadlock-free")
	}
	if res.StuckStates == 0 || res.StuckWitness == nil {
		t.Fatalf("no stuck witness: %v", res)
	}
	// Weak obstruction-freedom still holds for the deadly embrace (a
	// process running alone never sees the other's flag raised): deadlock
	// freedom implies WOF, not conversely — this asymmetry is exactly the
	// paper's remark in Section 2.
	if !res.WeakObstructionFree {
		t.Fatalf("deadly-embrace is WOF (solo runs never block); witness %d elems", len(res.WOFWitness))
	}
	// Replaying the stuck witness must produce a state where indeed
	// nobody can finish: drive it round-robin afterwards and observe no
	// completion.
	c, err := s.Build(machine.PSO)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(res.StuckWitness); err != nil {
		t.Fatal(err)
	}
	if err := machine.RunRoundRobin(c, 10_000); err != machine.ErrStepLimit {
		t.Fatalf("expected the stuck state to spin forever, got %v", err)
	}
}

// The rendezvous pseudo-lock (wait until the OTHER flag rises) violates
// weak obstruction-freedom outright: a process running alone spins forever.
func TestProgressDetectsWOFViolation(t *testing.T) {
	rendezvous := func(lay *machine.Layout, name string, n int) (*locks.Algorithm, error) {
		return locks.NewRendezvousDemo(lay, name, n)
	}
	s, err := NewMutexSubject("rendezvous", rendezvous, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), machine.PSO, statesOpt(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.WeakObstructionFree {
		t.Fatal("rendezvous lock reported weakly obstruction-free")
	}
	// Deadlock freedom fails too (WOF is implied by it), since a solo
	// prefix that parks one process spinning is reachable... in fact the
	// pair CAN rendezvous, so completion is reachable from every state
	// where both still run; but the all-finished state is unreachable
	// from states where one process already returned and the other has
	// not passed the rendezvous. Either way the checker must not report
	// full liveness.
	if res.DeadlockFree && res.Complete {
		// A complete graph claiming deadlock freedom would contradict
		// the WOF violation only if some stuck state existed; accept
		// either verdict but require the WOF refutation above.
		t.Log("note: rendezvous pair completes under fair schedules; WOF refutation is the essential result")
	}
	// Replaying the WOF witness from a fresh build must reach a state that
	// meets the precondition (at most one process mid-execution) and in
	// which a process the condition quantifies over — the mid-execution
	// one, or any unfinished one if none is — does not halt within the
	// solo limit when run alone.
	c, err := s.Build(machine.PSO)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(res.WOFWitness); err != nil {
		t.Fatal(err)
	}
	var active, unfinished []int
	for p := 0; p < c.N(); p++ {
		if c.Halted(p) {
			continue
		}
		unfinished = append(unfinished, p)
		if c.Stats().Steps[p] > 0 {
			active = append(active, p)
		}
	}
	if len(active) > 1 {
		t.Fatalf("WOF witness %v reaches a state with %d mid-execution processes", res.WOFWitness, len(active))
	}
	candidates := unfinished
	if len(active) == 1 {
		candidates = active
	}
	refuted := false
	for _, p := range candidates {
		solo := c.Clone()
		halted, err := solo.RunSolo(p, machine.DefaultSoloLimit(c.N()))
		if err != nil {
			t.Fatal(err)
		}
		if !halted {
			refuted = true
		}
	}
	if !refuted {
		t.Fatalf("after WOF witness %v every candidate of %v halts solo", res.WOFWitness, candidates)
	}
}

// An incomplete exploration must not claim deadlock freedom, and the
// truncation must surface as a structured budget error, not silently.
func TestProgressTruncatedIsInconclusive(t *testing.T) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckProgress(bg(), machine.PSO, statesOpt(10))
	if !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("10-state budget should trip: err = %v", err)
	}
	var be *run.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states BudgetError, got %v", err)
	}
	if res == nil {
		t.Fatal("budget trip should still return the partial result")
	}
	if res.Complete {
		t.Fatal("10-state budget cannot exhaust the bakery state space")
	}
	if res.DeadlockFree {
		t.Fatal("truncated exploration must not claim deadlock freedom")
	}
}

func TestProgressString(t *testing.T) {
	res := &ProgressResult{States: 5, Complete: true, DeadlockFree: true, WeakObstructionFree: true}
	if s := res.String(); s == "" {
		t.Fatal("empty summary")
	}
}

// The memory budget must mean what it says: the meter's estimate for a
// full bakery-n3/SC liveness graph stays within a factor of two of the
// live heap the graph actually retains at the end of exploration (its
// peak — the analysis releases the key index before building reverse
// adjacency).
func TestProgressMemEstimateHonest(t *testing.T) {
	s, err := NewMutexSubject("bakery", locks.NewBakery, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	meter := run.NewMeter(bg(), run.Budget{})
	g, err := s.exploreProgress(meter, machine.SC, &ProgressResult{Complete: true})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	if len(g.nodes) != 53968 {
		t.Fatalf("explored %d states, want 53968", len(g.nodes))
	}
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	charged := float64(meter.Mem())
	t.Logf("%d states: charged %.0f B/state, heap grew %.0f B/state",
		len(g.nodes), charged/float64(len(g.nodes)), heap/float64(len(g.nodes)))
	if charged > 2*heap || heap > 2*charged {
		t.Fatalf("memory estimate %.0f B is not within 2x of the %.0f B the graph retains", charged, heap)
	}
}
