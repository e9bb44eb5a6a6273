// dsedesc reports the resource-bound profile of a system (§4.1–4.2):
// canonical description lengths (bits) of states, actions, transitions and
// — for configuration automata — configurations, creation sets and hidden
// sets, plus the instrumented per-query work of the evaluators. With two
// systems it additionally reports the empirical composition-bound constant
// of Lemma 4.3.
//
// Usage:
//
//	dsedesc -sys coin:fair:x
//	dsedesc -sys ledger:direct:x:2 -limit 50000
//	dsedesc -sys coin:fair:x -sys chan:real:y     # composition bound
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/resilience"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

var ocli obs.CLI

func main() {
	var systems multiFlag
	flag.Var(&systems, "sys", "system reference (repeatable)")
	limit := flag.Int("limit", 100000, "reachability exploration limit")
	timeout := flag.Duration("timeout", 0, "abort after this wall-clock time (0 = no limit)")
	budget := flag.Int64("budget", 0, "kernel transition budget before stopping (0 = unlimited)")
	ocli.Register(flag.CommandLine)
	flag.Parse()
	fatal(ocli.Start())

	ctx, cancel := resilience.CLILimits(*timeout, *budget)
	defer cancel()

	if len(systems) == 0 {
		fmt.Fprintln(os.Stderr, "dsedesc: need at least one -sys")
		exit(2)
	}
	r := engine.NewRunner(nil, engine.NewCache(0))
	res, err := r.DescribeSystems(ctx, &engine.DescribeSpec{
		Systems: systems,
		Limit:   *limit,
	})
	fatal(err)
	for _, sd := range res.Systems {
		fmt.Printf("%s\n  description: %s\n", sd.Ref, sd.Description)
		fmt.Printf("  query work:  max %d bits/query, %d bits total over the reachable fragment\n",
			sd.QueryMaxBits, sd.QueryTotalBits)
		fmt.Printf("  reachable:   %d states, %d actions%s\n", sd.States, sd.Actions, trunc(sd.Truncated))
	}
	if res.CompositionBound != "" {
		fmt.Printf("composition bound (Lemma 4.3): %s\n", res.CompositionBound)
	}
	exit(0)
}

// exit routes every termination through the observability teardown so the
// trace is flushed and the metrics snapshot emitted even on failure.
func exit(code int) {
	ocli.Stop()
	os.Exit(code)
}

func trunc(t bool) string {
	if t {
		return " (truncated)"
	}
	return ""
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsedesc:", err)
		exit(1)
	}
}
