package lang

import "sort"

// exprEnv evaluates source expressions the way a running program does:
// every local name gets a slot in sorted-name order, and compilation
// resolves each reference to its slot.
type exprEnv struct {
	slots map[string]int32
	env   Env
}

func newExprEnv(pid, n int, locals map[string]Value) *exprEnv {
	names := make([]string, 0, len(locals))
	for name := range locals {
		names = append(names, name)
	}
	sort.Strings(names)
	x := &exprEnv{slots: map[string]int32{}, env: Env{PID: pid, N: n, Locals: make([]Value, len(names))}}
	for i, name := range names {
		x.slots[name] = int32(i)
		x.env.Locals[i] = locals[name]
	}
	return x
}

func (x *exprEnv) eval(e Expr) (Value, error) { return e.compile(x.slots).eval(&x.env) }

// local returns the value in name's slot.
func (x *exprEnv) local(name string) Value { return x.env.Locals[x.slots[name]] }
