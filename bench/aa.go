package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// gate is one end_to_end entry of BENCHMARK.json: the A/A study judges by the
// file's bounds, not by a copy of them.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readGates(path string) ([]gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// runAA is the A/A study: the same code, n runs of every workload, each run a
// process of its own with its own seed, workloads interleaved — what the
// benchmark driver does. For every metric x workload it prints the median,
// the quartiles (Python's statistics.quantiles rule), their distance as a
// share of the median, and the gap between the medians of the first and the
// second half of the runs. It returns non-zero when a spread or a gap in the
// worse direction exceeds the metric's bound (setup_s is held to the gap
// only), or when the host stole CPU time during a run: such a study says
// nothing about the benchmark and is to be run again.
func runAA(n int, seed int64, secs float64) int {
	if n < 4 {
		fmt.Fprintln(os.Stderr, "bench: --aa needs at least 4 runs")
		return 2
	}
	gates, err := readGates("BENCHMARK.json") // run.sh starts the program at the repository root
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	disturbed := 0
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0")
			cpu := readCPU()
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			stolen := stolenSince(cpu)
			if stolen > stolenLimit {
				disturbed++
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: run %d/%d %s done, cpu_stolen_share=%.4f\n", i+1, n, w.name, stolen)
		}
	}

	code := 0
	fmt.Printf("| workload | metric | median | q1 | q3 | spread | half gap | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, g := range gates {
			xs := values[w.name][g.Name]
			fmt.Fprintf(os.Stderr, "aa: %s %s = %.5g\n", w.name, g.Name, xs)
			q1, med, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			first, second := median(xs[:n/2]), median(xs[n/2:])
			gap := ratio(second-first, first) // positive = the second half reads higher
			if g.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			if (g.Name != "setup_s" && spread > g.Bound) || gap > g.Bound {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %.4g | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.name, g.Name, g.Unit, med, q1, q3, 100*spread, 100*gap, 100*g.Bound, verdict)
		}
	}
	fmt.Printf("\n%d of %d runs lost more than %.0f%% of the CPU time to the host.\n", disturbed, n*len(workloads), 100*stolenLimit)
	if disturbed > 0 {
		code = 1
	}
	return code
}
