package machine_test

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tradingfences/internal/check"
	"tradingfences/internal/lang"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/rme"
)

// The golden state-key file pins the exact bytes of the binary state
// encoding (and the legacy string fingerprint) on a seeded sample of
// reachable configurations. Checkpoint shards, serve identities and every
// known state count depend on those bytes, so any change to the process
// representation must leave this file untouched. Regenerate only for a
// deliberate codec change (which must also bump StateKeyCodecVersion):
//
//	UPDATE_GOLDEN_STATEKEY=1 go test -run TestGoldenStateKeys ./internal/machine/
const goldenKeyFile = "testdata/statekey_golden.txt"

// goldenSubject is one sampled system: how to build it and how to encode
// a configuration of it.
type goldenSubject struct {
	name  string
	build func(t *testing.T) (*machine.Config, *check.Subject)
	// canon, when set, encodes through the symmetry canonicalizer.
	canon  bool
	crash  bool // walks may take one crash step
	walks  int
	length int
}

func goldenSubjects() []goldenSubject {
	mutex := func(name string, ctor locks.Constructor, n int, m machine.Model, bound int) func(t *testing.T) (*machine.Config, *check.Subject) {
		return func(t *testing.T) (*machine.Config, *check.Subject) {
			s, err := check.NewMutexSubject(name, ctor, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			c.SetReorderBound(bound)
			return c, s
		}
	}
	return []goldenSubject{
		{name: "bakery-n3/PSO", build: mutex("bakery", locks.NewBakery, 3, machine.PSO, 0), walks: 5, length: 30},
		{name: "rtas-n2/SC/crash", build: func(t *testing.T) (*machine.Config, *check.Subject) {
			s, err := rme.NewSubject("rtas", 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.Build(machine.SC)
			if err != nil {
				t.Fatal(err)
			}
			return c, s
		}, crash: true, walks: 5, length: 30},
		{name: "peterson-n2/PSO/reorder1/symmetry", build: mutex("peterson", locks.NewPeterson, 2, machine.PSO, 1), canon: true, walks: 5, length: 30},
	}
}

// goldenEnabled lists the elements that take a step at c, in a fixed
// order: each process's ⊥ element, its buffered commits, then (when
// allowed) its crash element.
func goldenEnabled(c *machine.Config, crash bool) []machine.Elem {
	var els []machine.Elem
	for p := 0; p < c.N(); p++ {
		if e := machine.PBottom(p); c.Enabled(e) {
			els = append(els, e)
		}
		for _, r := range c.BufferRegs(p) {
			if e := machine.PReg(p, r); c.Enabled(e) {
				els = append(els, e)
			}
		}
		if e := machine.PCrash(p); crash && c.Enabled(e) {
			els = append(els, e)
		}
	}
	return els
}

var pointerRE = regexp.MustCompile(`0x[0-9a-f]+`)

// codeLabels names every statement block and loop of the programs by
// pre-order position, so the legacy fingerprint's in-process addresses
// can be rewritten into labels that are stable across runs and builds.
func codeLabels(progs []*lang.Program) map[string]string {
	labels := map[string]string{}
	var walk func(b []lang.Stmt)
	walk = func(b []lang.Stmt) {
		if len(b) == 0 {
			return
		}
		p := fmt.Sprintf("%p", &b[0])
		if _, ok := labels[p]; !ok {
			labels[p] = fmt.Sprintf("B%d", len(labels))
		}
		for _, st := range b {
			switch st := st.(type) {
			case *lang.IfStmt:
				walk(st.Then)
				walk(st.Else)
			case *lang.WhileStmt:
				if w := fmt.Sprintf("%p", st); labels[w] == "" {
					labels[w] = fmt.Sprintf("W%d", len(labels))
				}
				walk(st.Body)
			}
		}
	}
	for _, p := range progs {
		walk(p.Body)
		walk(p.Recovery)
	}
	return labels
}

// goldenLines samples every subject and renders one line per sampled
// configuration: subject, walk, step, state-key hex, normalized legacy
// fingerprint. crashes counts the crash steps the walks took.
func goldenLines(t *testing.T) (out []string, crashes int) {
	for si, gs := range goldenSubjects() {
		root, s := gs.build(t)
		progs := make([]*lang.Program, root.N())
		for p := range progs {
			progs[p] = root.Proc(p).Program()
		}
		labels := codeLabels(progs)
		var enc machine.KeyEncoder
		var cz *machine.Canonicalizer
		if gs.canon {
			cz = machine.NewCanonicalizer(s.Layout, root.N(), s.Sym)
			if !cz.Reduces() {
				t.Fatalf("%s: symmetry canonicalizer does not reduce", gs.name)
			}
		}
		rng := rand.New(rand.NewSource(int64(1000 + si)))
		for w := 0; w < gs.walks; w++ {
			c := root.Clone()
			crashed := false
			for i := 0; i <= gs.length; i++ {
				// Encoding settles every process, so each sampled step
				// (crashes included) starts from a settled configuration.
				var b []byte
				var err error
				if cz != nil {
					b, err = cz.AppendCanonicalStateBytes(c, nil)
				} else {
					b, err = enc.AppendStateBytes(c, nil)
				}
				if err != nil {
					t.Fatalf("%s walk %d step %d: %v", gs.name, w, i, err)
				}
				fp, err := c.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				fp = pointerRE.ReplaceAllStringFunc(fp, func(p string) string {
					l, ok := labels[p]
					if !ok {
						t.Fatalf("%s: fingerprint address %s is not a program point", gs.name, p)
					}
					return l
				})
				out = append(out, fmt.Sprintf("%s %d %d %s %s", gs.name, w, i, hex.EncodeToString(b), fp))
				if i == gs.length {
					break
				}
				els := goldenEnabled(c, gs.crash && !crashed)
				if len(els) == 0 {
					break
				}
				e := els[rng.Intn(len(els))]
				if _, took, err := c.Step(e); err != nil || !took {
					t.Fatalf("%s walk %d step %d %v: took=%v err=%v", gs.name, w, i, e, took, err)
				}
				if e.Crash {
					crashed = true
					crashes++
				}
			}
		}
	}
	return out, crashes
}

// TestGoldenStateKeys checks the state-key bytes and normalized legacy
// fingerprints of the sampled configurations against the golden file.
func TestGoldenStateKeys(t *testing.T) {
	got, crashes := goldenLines(t)
	if crashes == 0 {
		t.Fatal("golden sample takes no crash step")
	}
	path := filepath.FromSlash(goldenKeyFile)
	if os.Getenv("UPDATE_GOLDEN_STATEKEY") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden lines", len(got))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden state keys missing (regenerate with UPDATE_GOLDEN_STATEKEY=1): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sampled %d configurations, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
