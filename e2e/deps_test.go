package e2e

import (
	"os/exec"
	"slices"
	"strings"
	"testing"

	// TestMain builds qcommitd with `go build`, which the test cache cannot
	// see. Importing the daemon's qcommit packages here folds them into this
	// test binary's hash, so a change to any of them invalidates a cached
	// pass. TestDaemonDepsCovered keeps the list in step with the daemon.
	_ "qcommit/internal/core"
	_ "qcommit/internal/live"
	_ "qcommit/internal/msg"
	_ "qcommit/internal/obs"
	_ "qcommit/internal/transport"
	_ "qcommit/internal/transport/tcp"
	_ "qcommit/internal/types"
	_ "qcommit/internal/voting"
	_ "qcommit/internal/wal"
)

// daemonDeps mirrors the blank imports above.
var daemonDeps = []string{
	"qcommit/internal/core",
	"qcommit/internal/live",
	"qcommit/internal/msg",
	"qcommit/internal/obs",
	"qcommit/internal/transport",
	"qcommit/internal/transport/tcp",
	"qcommit/internal/types",
	"qcommit/internal/voting",
	"qcommit/internal/wal",
}

// TestDaemonDepsCovered: the blank imports name exactly the qcommit packages
// cmd/qcommitd imports, so the test cache is invalidated by any change to
// the daemon's dependency tree. It cannot cover cmd/qcommitd/main.go itself:
// a main package cannot be imported, so an edit confined to that file still
// needs `go test -count=1 ./e2e` to be exercised.
func TestDaemonDepsCovered(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, "qcommit/cmd/qcommitd").Output()
	if err != nil {
		t.Fatalf("go list qcommit/cmd/qcommitd: %v", err)
	}
	var want []string
	for _, imp := range strings.Fields(string(out)) {
		if strings.HasPrefix(imp, "qcommit/") {
			want = append(want, imp)
		}
	}
	slices.Sort(want)
	if !slices.Equal(daemonDeps, want) {
		t.Errorf("e2e blank imports = %v, qcommitd imports %v", daemonDeps, want)
	}
}
