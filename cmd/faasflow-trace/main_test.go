package main

import (
	"errors"
	"testing"
	"time"
)

// TestNonPositiveNIsAUsageError: every subcommand that runs closed-loop
// invocations refuses -n below 1 (main exits 2) instead of looping
// forever. Each call runs under a deadline so a hang fails fast.
func TestNonPositiveNIsAUsageError(t *testing.T) {
	for _, c := range []struct {
		name string
		cmd  func([]string) error
		args []string
	}{
		{"report", cmdReport, []string{"-bench", "IR", "-n", "-1"}},
		{"report", cmdReport, []string{"-bench", "IR", "-n", "0"}},
		{"util", cmdUtil, []string{"-bench", "IR", "-n", "-1"}},
		{"explain", cmdExplain, []string{"-bench", "IR", "-n", "-1"}},
		{"run", cmdRun, []string{"-file", "unused.json", "-n", "-1"}},
	} {
		done := make(chan error, 1)
		go func() { done <- c.cmd(c.args) }()
		select {
		case err := <-done:
			if !errors.As(err, new(usageError)) {
				t.Errorf("%s %v: got %v, want a usage error", c.name, c.args, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s %v did not return", c.name, c.args)
		}
	}
}
