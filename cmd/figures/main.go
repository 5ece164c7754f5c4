// Command figures regenerates the paper's figures and examples as text:
//
//	figures -fig 1      two-phase commit message ladder (Fig. 1)
//	figures -fig 2      three-phase commit message ladder (Fig. 2)
//	figures -fig 3      Example 1 scenario under Skeen's quorum protocol (Fig. 3)
//	figures -fig 4      partition states and concurrency sets table (Fig. 4)
//	figures -fig 5      termination protocol 1 walkthrough (Fig. 5)
//	figures -fig 6      participant state-transition relation (Fig. 6)
//	figures -fig 7      two-coordinator counterexample, Example 3 (Fig. 7)
//	figures -fig 8      termination protocol 2 walkthrough (Fig. 8)
//	figures -fig 9      quorum-based commit protocol ladder, early commit (Fig. 9)
//	figures -example 1  Example 1 (alias of -fig 3)
//	figures -example 2  Example 2: 3PC terminates inconsistently
//	figures -example 3  Example 3 (alias of -fig 7)
//	figures -example 4  Example 4: TP1 restores availability in G1 and G3
//	figures -mc         claim C1 Monte Carlo availability table (parallel)
//	figures -all        everything in order
package main

import (
	"flag"
	"fmt"
	"os"

	"qcommit"
	"qcommit/internal/avail"
	"qcommit/internal/core"
)

func main() {
	fig := flag.Int("fig", 0, "figure number (1-9)")
	example := flag.Int("example", 0, "example number (1-4)")
	mc := flag.Bool("mc", false, "claim C1 Monte Carlo availability table")
	trials := flag.Int("trials", 300, "Monte Carlo trials for -mc")
	workers := flag.Int("workers", 0, "Monte Carlo worker goroutines for -mc (0 = GOMAXPROCS)")
	all := flag.Bool("all", false, "print every figure and example")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	switch {
	case *all:
		for f := 1; f <= 9; f++ {
			render(f, 0, *seed)
		}
		render(0, 2, *seed)
		render(0, 4, *seed)
		monteCarloTable(*trials, *seed, *workers)
	case *mc:
		monteCarloTable(*trials, *seed, *workers)
	case *fig != 0:
		render(*fig, 0, *seed)
	case *example != 0:
		render(0, *example, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// monteCarloTable prints the claim C1 comparison (the paper's availability
// argument in aggregate) using the parallel Monte Carlo sweep on the
// analytic engine — the quorum-arithmetic fast path that the differential
// tests pin count-for-count to full engine replay.
func monteCarloTable(trials int, seed int64, workers int) {
	header(fmt.Sprintf("Claim C1 — Monte Carlo availability comparison (%d trials)", trials))
	results, err := avail.MonteCarloParallel(avail.DefaultScenarioParams(), trials, seed,
		avail.StandardBuilders(), avail.MCOptions{Workers: workers, Engine: avail.EngineAnalytic})
	check(err)
	fmt.Print(avail.FormatMCTableCI(results))
	fmt.Println()
}

func render(fig, example int, seed int64) {
	switch {
	case fig == 1:
		header("Fig. 1 — the two-phase commit protocol (message ladder, failure-free)")
		ladder(qcommit.Proto2PC, seed)
	case fig == 2:
		header("Fig. 2 — the three-phase commit protocol")
		ladder(qcommit.Proto3PC, seed)
	case fig == 3, example == 1:
		header("Fig. 3 / Example 1 — Skeen's quorum protocol blocks in every partition")
		example1(qcommit.ProtoSkeenQuorum, seed)
	case fig == 4:
		header("Fig. 4 — partition states and concurrency sets")
		fmt.Print(core.Fig4Table())
	case fig == 5:
		header("Fig. 5 — termination protocol 1 on the Example 1 scenario")
		termination(qcommit.ProtoQC1, seed)
	case fig == 6:
		header("Fig. 6 — participant state-transition diagram")
		fmt.Print(core.Fig6Table())
	case fig == 7, example == 3:
		header("Fig. 7 / Example 3 — two concurrent termination coordinators")
		example3(seed)
	case fig == 8:
		header("Fig. 8 — termination protocol 2 on the Example 1 scenario")
		termination(qcommit.ProtoQC2, seed)
	case fig == 9:
		header("Fig. 9 — the quorum-based commit protocol (CP2: early commit)")
		ladder(qcommit.ProtoQC2, seed)
	case example == 2:
		header("Example 2 — 3PC's termination protocol splits the decision")
		example1(qcommit.Proto3PC, seed)
	case example == 4:
		header("Example 4 — termination protocol 1 restores availability")
		example1(qcommit.ProtoQC1, seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure/example\n")
		os.Exit(2)
	}
	fmt.Println()
}

func header(s string) {
	fmt.Println(s)
	for range s {
		fmt.Print("=")
	}
	fmt.Println()
}

func ladder(proto qcommit.Protocol, seed int64) {
	// A compact 4-site layout keeps the diagram readable.
	items := []qcommit.ReplicatedItem{
		{Name: "x", Sites: []qcommit.SiteID{1, 2, 3, 4}, R: 2, W: 3},
	}
	c, err := qcommit.NewCluster(items, qcommit.Options{Protocol: proto, Seed: seed})
	check(err)
	txn := c.Submit(1, map[qcommit.ItemID]int64{"x": 1})
	c.Run()
	fmt.Printf("protocol %s, outcome: %v\n\n", proto, c.Outcome(txn))
	fmt.Print(c.SequenceDiagram())
}

func example1(proto qcommit.Protocol, seed int64) {
	c, txn, err := qcommit.SetupExample1(proto, seed)
	check(err)
	c.Run()
	fmt.Printf("scenario: coordinator site1 crashed, site5 in PC, partition G1={1,2,3} G2={4,5} G3={6,7,8}\n\n")
	fmt.Print(c.Availability(txn).String())
	if v := c.Violations(); len(v) > 0 {
		fmt.Println("\nATOMICITY VIOLATIONS (expected for 3PC under partitioning):")
		for _, s := range v {
			fmt.Println("  " + s)
		}
	}
}

func termination(proto qcommit.Protocol, seed int64) {
	c, txn, err := qcommit.SetupExample1(proto, seed)
	check(err)
	c.Run()
	fmt.Printf("termination under %s:\n\n", proto)
	fmt.Print(c.Ladder())
	fmt.Println()
	fmt.Print(c.Availability(txn).String())
}

func example3(seed int64) {
	for _, buggy := range []bool{false, true} {
		label := "correct rule (PC ignores PREPARE-TO-ABORT, PA ignores PREPARE-TO-COMMIT)"
		if buggy {
			seed = qcommit.Example3ViolatingSeed
			label = fmt.Sprintf("BUGGY rule (participants answer both buffers) — seed %d shows the violation", seed)
		}
		fmt.Printf("--- %s ---\n", label)
		c, txn, err := qcommit.SetupExample3(buggy, seed)
		check(err)
		c.Run()
		fmt.Printf("outcomes: %v\n", c.Outcomes(txn))
		if v := c.Violations(); len(v) > 0 {
			for _, s := range v {
				fmt.Println("VIOLATION: " + s)
			}
		} else {
			fmt.Println("no violation")
		}
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
