// Package cli is the flag vocabulary the binaries under cmd/ share: every
// flag that more than one of them takes is declared here once — name,
// help string and meaning — in five groups a binary registers on its
// FlagSet, next to what the flags drive: the workload they generate, the
// balancer's knobs, the job they launch, the files and endpoints a run
// leaves behind, and the online service.
//
// A group is a struct of values. A binary sets its own defaults in the
// fields before Register (`lbserve -ranks 8 -seed 7`, `lbplay -ranks 64
// -seed 1`) and may take a subset of a group by naming the flags it wants.
package cli

import (
	"flag"
	"fmt"
	"slices"
)

// register puts a group's flags on fs — all that declare declares, or the
// subset named by only — and returns their names. Each flag's default is
// the value its field holds when the group is registered. Asking for a
// flag the group does not have is a bug in the binary.
func register(fs *flag.FlagSet, only []string, declare func(g *flag.FlagSet)) []string {
	g := flag.NewFlagSet("", flag.ContinueOnError)
	declare(g)
	var names []string
	g.VisitAll(func(f *flag.Flag) {
		if len(only) == 0 || slices.Contains(only, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
			names = append(names, f.Name)
		}
	})
	if len(only) > len(names) {
		panic(fmt.Sprintf("cli: the group has %v, not all of %v", names, only))
	}
	return names
}

// CheckApplies returns an error naming the first flag given on the command
// line that is not in applies — the flags the chosen mode reads. A flag a
// run would silently ignore is a mistake in the command, so it is refused;
// when says which mode that is ("with -distributed"). Call after Parse.
func CheckApplies(fs *flag.FlagSet, when string, applies ...[]string) error {
	var err error
	read := slices.Concat(applies...)
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(read, f.Name) {
			err = fmt.Errorf("-%s has no effect %s", f.Name, when)
		}
	})
	return err
}

// Service is the online balancer service's flag group (cmd/lbserve).
type Service struct {
	Scenario string
	Phases   int
	Trigger  string
	LBCost   float64
}

// Register declares -scenario -phases -trigger -lbcost on fs and returns
// the names it declared.
func (s *Service) Register(fs *flag.FlagSet, only ...string) []string {
	return register(fs, only, func(g *flag.FlagSet) {
		g.StringVar(&s.Scenario, "scenario", s.Scenario, "workload stream: ramp | diurnal | burst | churn")
		g.IntVar(&s.Phases, "phases", s.Phases, "number of service phases")
		g.StringVar(&s.Trigger, "trigger", s.Trigger, "when to invoke the balancer: always | every:K | threshold:H | forecast[:headroom=X]")
		g.Float64Var(&s.LBCost, "lbcost", s.LBCost, "cost of one balancer invocation, in load units, > 0")
	})
}
