// Package golden checks a command's output against committed files. Each
// case runs the command in-process and compares its exit status, stdout
// and stderr with testdata/<name>.golden in the calling test's package:
//
//	exit status 0
//	<stdout>
//	-- stderr --
//	<stderr, when the command wrote any>
//
// Every command here is seeded and deterministic, so any difference is a
// behaviour change, and it shows as a diff in the change that causes it.
// After an intended change, rewrite the files and review their diff:
//
//	go test ./cmd/esti... ./examples/quickstart -run Golden -update
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// Case is one invocation: the golden file's name and the command's
// arguments.
type Case struct {
	Name string
	Args []string
}

// Run runs each case through run, a command's
// run(args, stdout, stderr) int, as a subtest and compares the result with
// its golden file.
//
// The output is compared only where exact is set: on amd64 below
// GOAMD64=v3. Elsewhere Go may fuse a multiply and an add into one
// rounding, which can move a printed digit, so there each case still runs
// but only its exit status is checked.
func Run(t *testing.T, run func(args []string, stdout, stderr io.Writer) int, cases []Case) {
	t.Helper()
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := format(run(c.Args, &stdout, &stderr), stdout.String(), stderr.String())
			path := filepath.Join("testdata", c.Name+".golden")
			if *update {
				if !exact {
					t.Fatalf("-update writes only where outputs are compared: amd64 below GOAMD64=v3, not %s here", runtime.GOARCH)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			want := string(raw)
			if !exact {
				status := func(s string) string { return s[:strings.IndexByte(s, '\n')+1] }
				if status(got) != status(want) {
					t.Errorf("%v: %swant %s", c.Args, status(got), status(want))
				}
				t.Logf("%s: exit status checked; output not compared, since Go may fuse multiply-adds on %s here", path, runtime.GOARCH)
				return
			}
			if got != want {
				t.Errorf("%v: output differs from %s (run with -update after an intended change)\n%s",
					c.Args, path, diff(want, got))
			}
		})
	}
}

// format is a run's golden form: the exit status line, stdout, then
// stderr under a marker line when there is any.
func format(code int, stdout, stderr string) string {
	s := fmt.Sprintf("exit status %d\n%s", code, stdout)
	if stderr != "" {
		s += "-- stderr --\n" + stderr
	}
	return s
}

// diff lists the lines of got that differ from want, by line number, up to
// a screenful.
func diff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(w), len(g)) && shown < 20; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
			shown++
		}
	}
	return b.String()
}
