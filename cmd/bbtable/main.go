// Command bbtable regenerates the paper's Table 1: allocation time and
// maximum load for every protocol, measured against the closed-form
// predictions, at one or more load levels ϕ = m/n.
//
// Usage:
//
//	bbtable -n 10000 -phis 1,10,100 -reps 5 -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	ballsbins "repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/table"
)

func main() {
	cf := cli.RegisterCommon(flag.CommandLine)
	var (
		n    = flag.Int("n", 10000, "number of bins")
		phis = flag.String("phis", "1,10,100", "comma-separated m/n load levels")
		reps = flag.Int("reps", 5, "replicates per configuration")
	)
	flag.Parse()
	eng, err := cf.Engine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbtable:", err)
		os.Exit(2)
	}

	var levels []int64
	for _, tok := range strings.Split(*phis, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bbtable: bad phi %q\n", tok)
			os.Exit(2)
		}
		levels = append(levels, v)
	}

	ctx := context.Background()
	for _, phi := range levels {
		m := phi * int64(*n)
		fmt.Printf("== Table 1 at n=%s, m=%s (phi=%d), %d reps ==\n\n",
			cli.FmtCount(int64(*n)), cli.FmtCount(m), phi, *reps)

		tb := table.New("algorithm", "alloc time (measured)", "time (predicted)",
			"max load (measured)", "max load (predicted)")

		rows := []struct {
			spec        ballsbins.Spec
			predTime    string
			predMaxLoad string
		}{
			{ballsbins.Greedy(2), fmt.Sprintf("%d (=2m)", 2*m),
				fmt.Sprintf("%.2f", core.PredictGreedyMaxLoad(*n, m, 2))},
			{ballsbins.Greedy(3), fmt.Sprintf("%d (=3m)", 3*m),
				fmt.Sprintf("%.2f", core.PredictGreedyMaxLoad(*n, m, 3))},
			{ballsbins.Left(2), fmt.Sprintf("%d (=2m)", 2*m),
				fmt.Sprintf("%.2f", core.PredictLeftMaxLoad(*n, m, 2))},
			{ballsbins.Memory(1, 1), fmt.Sprintf("%d (=m)", m),
				fmt.Sprintf("%.2f", float64(m)/float64(*n)+core.PredictMemoryMaxLoad(*n))},
			{ballsbins.Threshold(),
				fmt.Sprintf("%.0f (=m+m^3/4 n^1/4)", core.PredictThresholdTime(*n, m)),
				fmt.Sprintf("%d (=ceil(m/n)+1)", protocol.MaxLoadBound(*n, m))},
			{ballsbins.Adaptive(), "O(m)",
				fmt.Sprintf("%d (=ceil(m/n)+1)", protocol.MaxLoadBound(*n, m))},
			{ballsbins.AdaptiveNoSlack(),
				fmt.Sprintf("%.0f (=m ln n)", core.PredictAdaptiveNoSlackTime(*n, m)),
				fmt.Sprintf("%d", protocol.MaxLoadBound(*n, m))},
		}
		for _, row := range rows {
			sum, err := ballsbins.Replicates(ctx, row.spec, *n, m, *reps,
				ballsbins.WithSeed(cf.Seed), ballsbins.WithEngine(eng))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bbtable:", err)
				os.Exit(1)
			}
			tb.AddRow(sum.Protocol, cli.FmtStat(sum.Time), row.predTime,
				cli.FmtStat(sum.MaxLoad), row.predMaxLoad)
		}

		// Self-balancing baseline [6]: reallocations instead of samples.
		bal := ballsbins.SelfBalance(*n, m, cf.Seed)
		tb.AddRow("selfbalance[6]",
			fmt.Sprintf("%d samples + %d moves", bal.Samples, bal.Moves),
			"O(m)+n^O(1) moves",
			fmt.Sprintf("%d", bal.MaxLoad),
			fmt.Sprintf("%d (=ceil(m/n))", (m+int64(*n)-1)/int64(*n)))

		fmt.Print(tb.Render())
		fmt.Println()
	}
}
