package qcommit

import (
	"bufio"
	"errors"
	"flag"
	"net"
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

// buildCommand builds ./cmd/<name> into dir and returns the binary's path.
func buildCommand(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestCommandFlagErrors is the table of command lines that cannot work: each
// must exit 1 before running anything, with a message on stderr that names
// the offending setting.
func TestCommandFlagErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke tests in -short mode")
	}
	qsim := buildCommand(t, t.TempDir(), "qsim")
	cases := []struct {
		name string
		bin  string
		args []string
		want string
	}{
		{"qsim loss above 1", qsim, []string{"-loss", "1.5"}, "LossProb"},
		{"qsim negative dup", qsim, []string{"-dup", "-0.1"}, "DupProb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			cmd := exec.Command(tc.bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("%v: %v, want exit status 1\nstderr: %s", tc.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("%v: stderr does not name %s: %s", tc.args, tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("%v: ran anyway, printing %q", tc.args, stdout.String())
			}
		})
	}
}

// TestQcommitdGroupWAL starts a real qcommitd with -waldir and -pprof,
// waits for the ready line, shuts it down, and restarts it on the same WAL
// directory — the on-disk log must exist and the restart must come up (the
// recovery path runs on the non-empty directory).
func TestQcommitdGroupWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke tests in -short mode")
	}
	dir := t.TempDir()
	bin := buildCommand(t, dir, "qcommitd")
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-site", "1", "-peers", "1=127.0.0.1:0",
			"-items", "x", "-waldir", dir, "-pprof", "127.0.0.1:0")
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

// TestQcommitdMetricsPortTaken pins that an HTTP endpoint the daemon cannot
// bind is a startup error: with -metrics naming an occupied port, qcommitd
// must exit non-zero instead of serving on without /metrics.
func TestQcommitdMetricsPortTaken(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke tests in -short mode")
	}
	bin := buildCommand(t, t.TempDir(), "qcommitd")
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cmd := exec.Command(bin, "-site", "1", "-peers", "1=127.0.0.1:0",
		"-items", "x", "-metrics", taken.Addr().String())
	done := make(chan error, 1)
	var out []byte
	go func() {
		var err error
		out, err = cmd.CombinedOutput()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("qcommitd exited 0 with -metrics on an occupied port\n%s", out)
		}
		if !strings.Contains(string(out), "-metrics") {
			t.Errorf("exit error does not name -metrics:\n%s", out)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("qcommitd kept running with -metrics on an occupied port\n%s", out)
	}
}
