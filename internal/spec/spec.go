// Package spec provides a JSON interchange format for finite PSIOA, used by
// the command-line tools: automata can be described in files, loaded,
// validated and handed to the framework, and the built-in protocol library
// is addressable by name.
package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/measure"
	"repro/internal/protocols/channel"
	"repro/internal/protocols/coin"
	"repro/internal/protocols/coinflip"
	"repro/internal/protocols/commitment"
	"repro/internal/protocols/dynchannel"
	"repro/internal/protocols/ledger"
	"repro/internal/psioa"
	"repro/internal/structured"
)

// Sig is the JSON form of a state signature.
type Sig struct {
	In  []string `json:"in,omitempty"`
	Out []string `json:"out,omitempty"`
	Int []string `json:"int,omitempty"`
}

// Trans is the JSON form of a probabilistic transition: the target map
// assigns probabilities to successor states.
type Trans struct {
	From   string             `json:"from"`
	Action string             `json:"action"`
	To     map[string]float64 `json:"to"`
}

// Automaton is the JSON form of a finite PSIOA.
type Automaton struct {
	ID     string         `json:"id"`
	Start  string         `json:"start"`
	States map[string]Sig `json:"states"`
	Trans  []Trans        `json:"trans"`
	// EnvActions optionally marks the environment interface, making the
	// automaton structured (Def 4.17) when loaded with BuildStructured.
	EnvActions []string `json:"envActions,omitempty"`
}

// Build assembles and validates the automaton.
func (a *Automaton) Build() (*psioa.Table, error) {
	if a.ID == "" {
		return nil, fmt.Errorf("spec: automaton needs an id")
	}
	b := psioa.NewBuilder(a.ID, psioa.State(a.Start))
	names := make([]string, 0, len(a.States))
	for q := range a.States {
		names = append(names, q)
	}
	sort.Strings(names)
	for _, q := range names {
		sig := a.States[q]
		b.AddState(psioa.State(q), psioa.NewSignature(acts(sig.In), acts(sig.Out), acts(sig.Int)))
	}
	for _, tr := range a.Trans {
		d := measure.New[psioa.State]()
		for to, p := range tr.To {
			d.Add(psioa.State(to), p)
		}
		b.AddTrans(psioa.State(tr.From), psioa.Action(tr.Action), d)
	}
	return b.Build()
}

// BuildStructured assembles the automaton as a structured PSIOA
// (Def 4.17), using EnvActions as the fixed environment interface; with no
// EnvActions declared, every external action is environment-facing.
func (a *Automaton) BuildStructured() (*structured.Structured, error) {
	t, err := a.Build()
	if err != nil {
		return nil, err
	}
	if len(a.EnvActions) == 0 {
		return structured.New(t, nil), nil
	}
	return structured.NewSet(t, psioa.NewActionSet(acts(a.EnvActions)...)), nil
}

func acts(ss []string) []psioa.Action {
	out := make([]psioa.Action, len(ss))
	for i, s := range ss {
		out[i] = psioa.Action(s)
	}
	return out
}

// FromTable converts a finite automaton back into its JSON form, using a
// bounded exploration to enumerate states (declared-but-unreachable states
// of a Table are included via States()).
func FromTable(t *psioa.Table) *Automaton {
	out := &Automaton{ID: t.ID(), Start: string(t.Start()), States: map[string]Sig{}}
	states := t.States()
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	for _, q := range states {
		sig := t.Sig(q)
		out.States[string(q)] = Sig{In: strs(sig.In), Out: strs(sig.Out), Int: strs(sig.Int)}
		for _, a := range psioa.SortedAll(sig) {
			d := t.Trans(q, a)
			to := map[string]float64{}
			d.ForEach(func(q2 psioa.State, p float64) { to[string(q2)] = p })
			out.Trans = append(out.Trans, Trans{From: string(q), Action: string(a), To: to})
		}
	}
	return out
}

func strs(s psioa.ActionSet) []string {
	out := make([]string, 0, len(s))
	for _, a := range s.Sorted() {
		out = append(out, string(a))
	}
	return out
}

// Load reads and builds an automaton from a JSON file.
func Load(path string) (*psioa.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Automaton
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("spec: %s: %w", path, err)
	}
	return a.Build()
}

// Save writes an automaton spec as indented JSON.
func Save(path string, a *Automaton) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Builtin reports whether ref names a built-in automaton rather than a
// JSON spec file: it contains no '/' and does not end in .json. Resolving
// a builtin reads nothing outside the binary, so what it resolves to is a
// function of ref alone; a file ref resolves to whatever the file holds
// when it is read.
func Builtin(ref string) bool {
	return !strings.Contains(ref, "/") && !strings.HasSuffix(ref, ".json")
}

// Resolve maps a reference to an automaton: either a path to a JSON spec
// (any ref that is not Builtin) or a built-in name of the form
// kind:variant:args. Built-ins:
//
//	coin:fair:<id>            — ideal fair coin
//	coin:biased:<id>:<p1>     — coin with P(1) = p1
//	coin:leaky:<id>:<k>       — bias 1/2 + 2^-k
//	coin:env:<id>             — coin environment
//	chan:real:<id>            — OTP real protocol
//	chan:leaky:<id>:<p>       — leaky real protocol
//	chan:ideal:<id>           — ideal secure channel
//	chan:eaves:<id>           — eavesdropper adversary
//	chan:sim:<id>             — eavesdropper simulator
//	chan:env:<id>:<m>         — channel environment sending bit m
//	ledger:direct:<id>:<n>    — dynamic ledger host, n direct subchains
//	ledger:parity:<id>:<n>    — dynamic ledger host, n parity subchains
//	dynchan:real:<id>:<n>     — dynamic host creating n OTP sessions
//	dynchan:ideal:<id>:<n>    — dynamic host creating n ideal sessions
//	com:real:<id>             — perfectly-hiding commitment protocol
//	com:ideal:<id>            — ideal commitment functionality
//	com:observer:<id>         — passive commitment adversary
//	com:sim:<id>              — consistent commitment simulator
//	com:env:<id>:<b>          — commitment environment committing bit b
//	flip:real:<id>:<n>        — n-player XOR coin flipping
//	flip:corrupt:<id>:<n>     — same with player n corrupted
//	flip:ideal:<id>           — strong ideal coin
//	flip:weak:<id>            — weak (biasable) ideal coin
//	flip:env:<id>             — coin-flipping environment
func Resolve(ref string) (psioa.PSIOA, error) {
	if !Builtin(ref) {
		return Load(ref)
	}
	parts := strings.Split(ref, ":")
	bad := func() (psioa.PSIOA, error) {
		return nil, fmt.Errorf("spec: unknown builtin %q (see package spec docs)", ref)
	}
	if len(parts) < 2 {
		return bad()
	}
	arg := func(i int) string {
		if i < len(parts) {
			return parts[i]
		}
		return ""
	}
	switch parts[0] {
	case "coin":
		id := arg(2)
		switch parts[1] {
		case "fair":
			return coin.Fair(id), nil
		case "biased":
			p, err := strconv.ParseFloat(arg(3), 64)
			if err != nil {
				return nil, err
			}
			return coin.Flipper(id, p), nil
		case "leaky":
			k, err := strconv.Atoi(arg(3))
			if err != nil {
				return nil, err
			}
			return coin.Leaky(id, k), nil
		case "env":
			return coin.Env(id), nil
		}
	case "chan":
		id := arg(2)
		switch parts[1] {
		case "real":
			return channel.Real(id), nil
		case "leaky":
			p, err := strconv.ParseFloat(arg(3), 64)
			if err != nil {
				return nil, err
			}
			return channel.LeakyReal(id, p), nil
		case "ideal":
			return channel.Ideal(id), nil
		case "eaves":
			return channel.Eavesdropper(id), nil
		case "sim":
			return channel.SimFor(id), nil
		case "env":
			m, err := strconv.Atoi(arg(3))
			if err != nil {
				return nil, err
			}
			return channel.Env(id, m), nil
		}
	case "ledger":
		id := arg(2)
		n, err := strconv.Atoi(arg(3))
		if err != nil {
			return nil, err
		}
		switch parts[1] {
		case "direct":
			x, _ := ledger.Host(id, n, ledger.Direct)
			return x, nil
		case "parity":
			x, _ := ledger.Host(id, n, ledger.Parity)
			return x, nil
		}
	case "dynchan":
		id := arg(2)
		n, err := strconv.Atoi(arg(3))
		if err != nil {
			return nil, err
		}
		switch parts[1] {
		case "real":
			return dynchannel.Host(id, n, dynchannel.RealKind), nil
		case "ideal":
			return dynchannel.Host(id, n, dynchannel.IdealKind), nil
		}
	case "com":
		id := arg(2)
		switch parts[1] {
		case "real":
			return commitment.Real(id), nil
		case "ideal":
			return commitment.Ideal(id), nil
		case "observer":
			return commitment.Observer(id), nil
		case "sim":
			return commitment.Sim(id), nil
		case "env":
			b, err := strconv.Atoi(arg(3))
			if err != nil {
				return nil, err
			}
			return commitment.Env(id, b), nil
		}
	case "flip":
		id := arg(2)
		switch parts[1] {
		case "real":
			n, err := strconv.Atoi(arg(3))
			if err != nil {
				return nil, err
			}
			return coinflip.Real(id, n), nil
		case "corrupt":
			n, err := strconv.Atoi(arg(3))
			if err != nil {
				return nil, err
			}
			return coinflip.RealCorrupt(id, n), nil
		case "ideal":
			return coinflip.Ideal(id), nil
		case "weak":
			return coinflip.WeakIdeal(id), nil
		case "env":
			return coinflip.Env(id), nil
		}
	}
	return bad()
}
