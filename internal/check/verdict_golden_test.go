package check

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

// The verdict golden file pins the liveness (E8) and FCFS (E12) answers
// as machine-checked rows: state counts, completeness and every verdict
// field. Liveness witnesses are not pinned — they follow the explorer's
// parent pointers, which a change of search order may legitimately move —
// but FCFS witnesses are, since its depth-first order is part of its
// contract. Regenerate only for a deliberate semantic change:
//
//	UPDATE_GOLDEN_VERDICTS=1 go test -run TestGoldenVerdicts ./internal/check/
const goldenVerdictFile = "testdata/verdicts_golden.txt"

func goldenVerdictRows(t *testing.T) []string {
	type mutexCase struct {
		name string
		ctor locks.Constructor
	}
	live := []mutexCase{
		{"peterson", locks.NewPeterson},
		{"bakery", locks.NewBakery},
		{"tournament", locks.NewTournament},
		{"deadlock-demo", locks.NewDeadlockDemo},
		{"rendezvous-demo", locks.NewRendezvousDemo},
	}
	models := []machine.Model{machine.SC, machine.TSO, machine.PSO}
	var rows []string
	liveness := func(name string, ctor locks.Constructor, n int, m machine.Model) {
		s, err := NewMutexSubject(name, ctor, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.CheckProgress(bg(), m, statesOpt(3_000_000))
		if err != nil {
			t.Fatalf("liveness %s n=%d %v: %v", name, n, m, err)
		}
		rows = append(rows, fmt.Sprintf("liveness %s n=%d %v states=%d complete=%v deadlockFree=%v stuck=%d wof=%v",
			name, n, m, res.States, res.Complete, res.DeadlockFree, res.StuckStates, res.WeakObstructionFree))
	}
	for _, tc := range live {
		for _, m := range models {
			liveness(tc.name, tc.ctor, 2, m)
		}
	}
	liveness("bakery", locks.NewBakery, 3, machine.SC)

	fcfs := []mutexCase{
		{"bakery", locks.NewBakery},
		{"peterson", locks.NewPeterson},
		{"gt2", gt2ctor},
	}
	fcfsRow := func(name string, ctor locks.Constructor, n int, m machine.Model) {
		s, err := NewFCFSSubject(name, ctor, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Exhaustive(bg(), m, statesOpt(5_000_000))
		if err != nil {
			t.Fatalf("fcfs %s n=%d %v: %v", name, n, m, err)
		}
		rows = append(rows, fmt.Sprintf("fcfs %s n=%d %v states=%d complete=%v violation=%v violator=%d overtaken=%d witness=[%s]",
			name, n, m, res.States, res.Complete, res.Violation, res.Violator, res.Overtaken, res.Witness))
	}
	for _, tc := range fcfs {
		for _, m := range models {
			fcfsRow(tc.name, tc.ctor, 2, m)
		}
	}
	// GT_2 at n=3 is the one refuted case (TestFCFSGT2Violated), so its
	// row pins a violation witness as well.
	fcfsRow("gt2", gt2ctor, 3, machine.PSO)
	return rows
}

// TestGoldenVerdicts holds the liveness and FCFS explorers to the recorded
// table: any change of state count or verdict is a regression unless the
// table is deliberately regenerated.
func TestGoldenVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("explores bakery n=3 exhaustively")
	}
	got := strings.Join(goldenVerdictRows(t), "\n") + "\n"
	if os.Getenv("UPDATE_GOLDEN_VERDICTS") != "" {
		if err := os.WriteFile(goldenVerdictFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenVerdictFile)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotRows) != len(wantRows) {
		t.Fatalf("golden has %d rows, explorers produced %d", len(wantRows), len(gotRows))
	}
	for i := range gotRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, gotRows[i], wantRows[i])
		}
	}
}
