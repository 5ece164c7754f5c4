package qcommit

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reproduce makes TestBenchFilesReproduce rerun the command of every
// checked-in BENCH_*.json: go test -run TestBenchFilesReproduce -reproduce .
var reproduce = flag.Bool("reproduce", false, "rerun each BENCH_*.json's command and diff its output against the checked-in file")

// benchFiles are the checked-in result files whose numbers the docs quote.
var benchFiles = []string{"BENCH_avail.json", "BENCH_churn.json"}

// TestBenchFilesReproduce reruns the command each BENCH_*.json records
// (a cmd/ tool writing the file with -json, relative to its working
// directory) and fails on any field that differs, except the wall-clock
// ones: elapsed_sec, *_per_sec, and workers.
func TestBenchFilesReproduce(t *testing.T) {
	if !*reproduce {
		t.Skip("rerunning the BENCH_*.json commands takes seconds; pass -reproduce")
	}
	for _, file := range benchFiles {
		t.Run(file, func(t *testing.T) {
			want := decodeBench(t, file)
			cmdline := strings.Fields(fmt.Sprint(want["command"]))
			if len(cmdline) == 0 {
				t.Fatalf("%s records no command", file)
			}
			dir := t.TempDir()
			cmd := exec.Command(buildCommand(t, dir, cmdline[0]), cmdline[1:]...)
			cmd.Dir = dir
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", strings.Join(cmdline, " "), err, out)
			}
			got := decodeBench(t, filepath.Join(dir, file))
			var diffs []string
			diffBench(file, want, got, &diffs)
			for i, d := range diffs {
				if i == 20 {
					t.Errorf("... and %d more", len(diffs)-i)
					break
				}
				t.Error(d)
			}
		})
	}
}

func decodeBench(t *testing.T, path string) map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // compare numbers as written, not as rounded floats
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc
}

// wallClockField reports the fields a rerun may change.
func wallClockField(key string) bool {
	return key == "elapsed_sec" || key == "workers" || strings.HasSuffix(key, "_per_sec")
}

// diffBench appends a line per differing leaf of want and got, skipping
// wall-clock fields.
func diffBench(path string, want, got any, diffs *[]string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, dup := w[k]; !dup {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !wallClockField(k) {
				diffBench(path+"."+k, w[k], g[k], diffs)
			}
		}
		return
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			break
		}
		for i := range w {
			diffBench(fmt.Sprintf("%s[%d]", path, i), w[i], g[i], diffs)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		*diffs = append(*diffs, fmt.Sprintf("%s: checked in %v, rerun %v", path, want, got))
	}
}
