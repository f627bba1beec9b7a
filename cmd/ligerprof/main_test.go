package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsStrayArgument pins that a positional argument fails the
// invocation by name before anything runs; flag parsing stops at the
// first one, so the flags after it would otherwise be silently ignored.
func TestRejectsStrayArgument(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "ligerprof")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-node", "a100", "OPT-66B"}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ligerprof %s: %v, want exit status 1", strings.Join(args, " "), err)
	}
	if len(out) > 0 {
		t.Fatalf("a rejected invocation printed %q", out)
	}
	if want := `unexpected argument "OPT-66B"`; !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q, want it to contain %q", stderr.String(), want)
	}
}
