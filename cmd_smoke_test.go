package qcommit

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// update makes TestCommandsSmoke rewrite its golden files from the commands'
// current output instead of comparing against them: go test -run
// TestCommandsSmoke -update . — only together with a deliberate change of
// simulated behaviour, and only after reading the diff it produces.
var update = flag.Bool("update", false, "rewrite the golden files of TestCommandsSmoke")

// TestCommandsSmoke builds and runs each CLI tool once, checking for the
// markers EXPERIMENTS.md promises. Guarded by -short for quick local runs.
func TestCommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke tests in -short mode")
	}
	cases := []struct {
		name string
		args []string
		want []string
		// golden names a file the output must equal byte for byte (once the
		// wall-clock runs/s and trials/s figures are masked).
		golden string
	}{
		{
			// Every figure, example and the C1 table at the fixed default
			// seed. The golden file must only ever change together with a
			// deliberate change of simulated behaviour (-update), never to
			// make a refactor pass; CHANGES.md says what moved each time.
			name:   "figures-all",
			args:   []string{"run", "./cmd/figures", "-all"},
			golden: "testdata/figures_all.golden",
			want: []string{
				"Fig. 1", "Fig. 4", "Fig. 6", "Fig. 9",
				"blocks in every partition",
				"terminated inconsistently",              // Example 2
				"VIOLATION",                              // Example 3 buggy run
				"no transition exists between PC and PA", // Fig. 6 note
			},
		},
		{
			// The two adaptive access strategies through a scenario that walks
			// every catch-up path — a copy crashes after voting and restarts, a
			// partition cuts two copies off and heals — with the full message
			// ladder, so the order of every CopyReq is pinned. Same rule as the
			// figures golden.
			name:   "qsim-mw-golden",
			args:   append([]string{"run", "./cmd/qsim", "-protocol", "QC1", "-strategy", "mw"}, strategyScenario...),
			golden: "testdata/qsim_mw.golden",
		},
		{
			name:   "qsim-dv-golden",
			args:   append([]string{"run", "./cmd/qsim", "-protocol", "QC1", "-strategy", "dv"}, strategyScenario...),
			golden: "testdata/qsim_dv.golden",
		},
		{
			// Five protocols x three strategies x both engines under site and
			// partition churn: fates, availability probes and the mode/vote
			// transition counters.
			name: "churnbench-strategies-golden",
			args: []string{"run", "./cmd/churnbench", "-runs", "8", "-horizon", "4s",
				"-mttf", "4s", "-mttr", "300ms", "-partmtbf", "2s", "-partmttr", "300ms",
				"-strategy", "all", "-engine", "both", "-ci"},
			golden: "testdata/churnbench_strategies.golden",
		},
		{
			name: "availbench",
			args: []string{"run", "./cmd/availbench", "-trials", "30"},
			want: []string{"protocol", "QC1", "QC2", "SkeenQ", "term-rate"},
		},
		{
			name: "qsim",
			args: []string{"run", "./cmd/qsim", "-protocol", "QC1",
				"-crash", "1", "-crashat", "15ms",
				"-partition", "1,2,3|4,5|6,7,8", "-partat", "15ms"},
			want: []string{"protocol: QC1", "outcome:", "network:"},
		},
		{
			// Scripted recovery: the partition heals and the crashed
			// coordinator restarts, so the interrupted transaction must
			// terminate at every site (no "blocked" in the per-site map).
			name: "qsim-recovery",
			args: []string{"run", "./cmd/qsim", "-protocol", "QC1",
				"-crash", "1", "-crashat", "15ms",
				"-partition", "1,2,3|4,5|6,7,8", "-partat", "15ms",
				"-heal", "300ms", "-restart", "1:350ms"},
			want: []string{"protocol: QC1", "outcome: aborted", "site1:aborted"},
		},
		{
			name: "churnbench",
			args: []string{"run", "./cmd/churnbench", "-runs", "4", "-horizon", "2s"},
			want: []string{"protocol", "2PC", "3PC", "SkeenQ", "QC1", "QC2", "p95(ms)", "blkshare", "rd-avl", "wr-avl"},
		},
		{
			// All three access strategies over the identical timelines: each
			// must label itself, and the availability columns must appear.
			name: "churnbench-strategies",
			args: []string{"run", "./cmd/churnbench", "-runs", "3", "-horizon", "2s",
				"-protocol", "QC1,QC2", "-strategy", "all"},
			want: []string{"=== strategy: quorum ===", "=== strategy: missing-writes ===",
				"=== strategy: dynamic ===", "strategy missing-writes", "strategy dynamic", "rd-avl"},
		},
		{
			// Adaptive strategy end-to-end: a replica crash after voting
			// demotes the item; restart + anti-entropy restores it.
			name: "missingwrites-example",
			args: []string{"run", "./examples/missingwrites"},
			want: []string{"mode=optimistic", "mode=pessimistic", "missing=[site4]",
				"read-one now refused", "1 demotion(s), 1 restoration(s)"},
		},
		{
			name: "qsim-missingwrites",
			args: []string{"run", "./cmd/qsim", "-protocol", "QC1", "-strategy", "mw",
				"-crash", "2", "-crashat", "15ms"},
			want: []string{"strategy: missing-writes", "access modes", "outcome:"},
		},
		{
			// Dynamic vote reassignment: the run reports per-item vote-table
			// epochs and the surviving bases.
			name: "qsim-dynamic",
			args: []string{"run", "./cmd/qsim", "-protocol", "QC1", "-strategy", "dv",
				"-crash", "2", "-crashat", "15ms"},
			want: []string{"strategy: dynamic", "vote tables", "epoch", "outcome:"},
		},
		{
			// Dynamic voting end-to-end: after the second failure the static
			// cluster is write-blocked while the dynamic basis stays
			// available; heal + catch-up restores the full table.
			name: "dynamicvoting-example",
			args: []string{"run", "./examples/dynamicvoting"},
			want: []string{
				"[quorum] write-available from site1 after the second failure? false",
				"[dynamic] write-available from site1 after the second failure? true",
				"stale pair {3,4} write-available in a minority partition? false",
				"2 reassignments, 1 restoration",
			},
		},
		{
			name: "churnstudy-example",
			args: []string{"run", "./examples/churnstudy"},
			want: []string{"repair-speed sweep", "MTTR = 100ms", "partition churn", "3PC violated atomicity"},
		},
		{
			// Closed-loop load against a live in-process cluster with the
			// optimized commit path: group WAL would need a directory, so the
			// smoke run uses the memory WAL and just checks the report shape.
			name: "loadbench",
			args: []string{"run", "./cmd/loadbench", "-transport", "inproc",
				"-wal", "mem", "-sites", "3", "-items", "8", "-clients", "8",
				"-zipf", "1.2", "-duration", "300ms"},
			want: []string{"txn/s", "p99", "abort"},
		},
		{
			// Real processes on real sockets: qcommitd daemons driven through
			// the client protocol, including a partition installed over the
			// control channel (terminates, never blocks) and a post-heal
			// commit.
			name: "networked-example",
			args: []string{"run", "./examples/networked"},
			want: []string{
				"cluster up: 3 qcommitd processes speaking QC1 over TCP",
				"committed",
				"aborted (terminated, not blocked)",
				"after heal",
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", tc.args, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q", want)
				}
			}
			if tc.golden != "" {
				masked := ratesRE.ReplaceAllString(string(out), "(- runs/s, - trials/s)")
				if *update {
					if err := os.WriteFile(tc.golden, []byte(masked), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				golden, err := os.ReadFile(tc.golden)
				if err != nil {
					t.Fatal(err)
				}
				if line, got, want := firstDiff(masked, string(golden)); line > 0 {
					// A ladder line moves whenever a message or timer does; any
					// other line is an outcome, a table or a count.
					kind := "not a ladder line: an outcome, table or count changed"
					if strings.HasPrefix(got, "t=") || strings.HasPrefix(want, "t=") {
						kind = "a ladder line (t=…): timing or message order changed"
					}
					t.Errorf("output differs from %s first at line %d, %s\n got: %s\nwant: %s", tc.golden, line, kind, got, want)
				}
			}
		})
	}
}

// strategyScenario is the fault script of the two qsim strategy goldens.
var strategyScenario = []string{"-crash", "2", "-crashat", "15ms", "-restart", "2:200ms",
	"-partition", "1,2,3,5,6,7|4,8", "-partat", "18ms", "-heal", "300ms", "-ladder"}

// ratesRE matches the one wall-clock figure in churnbench's stdout.
var ratesRE = regexp.MustCompile(`\([0-9.]+ runs/s, [0-9.]+ trials/s\)`)

// firstDiff returns the 1-based number and both versions of the first line at
// which a and b differ, or 0 when they are equal.
func firstDiff(a, b string) (line int, got, want string) {
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(as) || i < len(bs); i++ {
		got, want = "<end of output>", "<end of output>"
		if i < len(as) {
			got = as[i]
		}
		if i < len(bs) {
			want = bs[i]
		}
		if got != want {
			return i + 1, got, want
		}
	}
	return 0, "", ""
}

// TestLoadbenchJSON is the loadbench gate: a short run with the full optimized
// path (group WAL on disk, sharded locks) must make progress and emit the
// machine-readable document with sane fields. (Throughput itself is measured
// and bounded by bench/, not here.)
func TestLoadbenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke tests in -short mode")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	out, err := exec.Command("go", "run", "./cmd/loadbench",
		"-transport", "inproc", "-wal", "group", "-waldir", dir,
		"-sites", "3", "-items", "8", "-clients", "8", "-zipf", "1.2",
		"-duration", "500ms", "-seed", "7", "-json", jsonPath).CombinedOutput()
	if err != nil {
		t.Fatalf("loadbench: %v\n%s", err, out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command string `json:"command"`
		Runs    []struct {
			Label      string  `json:"label"`
			WAL        string  `json:"wal"`
			Completed  int     `json:"completed"`
			Committed  int     `json:"committed"`
			TxnsPerSec float64 `json:"txns_per_sec"`
			P99Ms      float64 `json:"p99_ms"`
			WALFsyncs  uint64  `json:"wal_fsyncs"`
			// Stage-level fields scraped from the obs registry.
			LockHoldP99Ms     float64 `json:"lock_hold_p99_ms"`
			WALFlushWaitP99Ms float64 `json:"wal_flush_wait_p99_ms"`
			WALSyncP99Ms      float64 `json:"wal_sync_p99_ms"`
			WALBatchMean      float64 `json:"wal_batch_mean"`
			FlushReleaseP99Ms float64 `json:"flush_release_wait_p99_ms"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if doc.Command == "" || len(doc.Runs) != 1 {
		t.Fatalf("want command + 1 run, got %q / %d runs", doc.Command, len(doc.Runs))
	}
	r := doc.Runs[0]
	if r.WAL != "group" || r.Committed <= 0 || r.TxnsPerSec <= 0 || r.P99Ms <= 0 {
		t.Errorf("implausible run: %+v", r)
	}
	// Group commit's point is amortization: a run this concurrent must have
	// forced the log fewer times than it committed transactions (each commit
	// writes multiple records across the 3 sites).
	if r.WALFsyncs == 0 || r.WALFsyncs >= uint64(r.Completed)*3 {
		t.Errorf("fsyncs = %d for %d completed txns: group commit not amortizing", r.WALFsyncs, r.Completed)
	}
	// The obs registry is scraped into the report by default: every
	// commit-path stage that runs under this config must have produced
	// samples (net_* fields are absent here — the transport is in-process).
	if r.LockHoldP99Ms <= 0 || r.WALFlushWaitP99Ms <= 0 || r.WALSyncP99Ms <= 0 || r.FlushReleaseP99Ms <= 0 {
		t.Errorf("missing stage-level percentiles: %+v", r)
	}
	// Group commit must show in the scrape too, and agree with the WAL's own
	// fsync counter: batches * mean records per batch ≈ records appended.
	if r.WALBatchMean < 1 {
		t.Errorf("wal_batch_mean = %v, want >= 1", r.WALBatchMean)
	}
}

// TestQcommitdGroupWAL starts a real qcommitd with -wal group and -pprof,
// waits for the ready line, shuts it down, and restarts it on the same WAL
// directory — the on-disk log must exist and the restart must come up (the
// recovery path runs on the non-empty directory).
func TestQcommitdGroupWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke tests in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qcommitd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/qcommitd").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-site", "1", "-peers", "1=127.0.0.1:0",
			"-items", "x", "-wal", "group", "-waldir", dir, "-pprof", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		ready := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if strings.Contains(sc.Text(), "serving") {
					ready <- sc.Text()
					return
				}
			}
			ready <- ""
		}()
		select {
		case line := <-ready:
			if line == "" {
				cmd.Process.Kill()
				t.Fatal("qcommitd exited before the ready line")
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Fatal("qcommitd never printed the ready line")
		}
		return cmd
	}
	stop := func(cmd *exec.Cmd) {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatal("qcommitd did not exit on SIGTERM")
		}
	}
	stop(start())
	walPath := filepath.Join(dir, "qcommitd-site1.wal")
	if _, err := os.Stat(walPath); err != nil {
		t.Fatalf("WAL file not created: %v", err)
	}
	stop(start()) // restart on the existing directory: recovery must not wedge startup
}
