// Command hrdm-bench runs the experiment suite E1–E12 defined in
// internal/experiment and prints each experiment's table.
//
// Usage:
//
//	hrdm-bench            # run everything
//	hrdm-bench E5 E10     # run selected experiments
//
// An argument that names no experiment exits 2 with the list.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
)

var runners = map[string]func() experiment.Table{
	"E1": experiment.E1SetOps, "E2": experiment.E2Project,
	"E3": experiment.E3Select, "E4": experiment.E4Timeslice,
	"E5": experiment.E5UnionVsMerge, "E6": experiment.E6Joins,
	"E7": experiment.E7TimeJoin, "E8": experiment.E8When,
	"E9": experiment.E9Reduction, "E10": experiment.E10Storage,
	"E11": experiment.E11Queries, "E12": experiment.E12Laws,
}

var order = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = order
	}
	for _, id := range args {
		run, ok := runners[strings.ToUpper(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "hrdm-bench: unknown experiment %q (have %s)\n", id, strings.Join(order, " "))
			os.Exit(2)
		}
		fmt.Println(run())
	}
}
