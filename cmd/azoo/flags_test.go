package main

import (
	"os"
	"path/filepath"
	"testing"

	"automatazoo/internal/ckpt"
)

// TestNegativeSizeFlagsExitUsage: a negative -scale, -input, -j or
// -segments is a usage error (exit 2) on every command that takes it,
// rejected before any benchmark is built.
func TestNegativeSizeFlagsExitUsage(t *testing.T) {
	cases := []struct {
		cmd   string
		run   func([]string) error
		base  []string
		flags []string
	}{
		{"run", cmdRun, []string{"-bench", "Brill"}, sizeFlags},
		{"explain", cmdExplain, []string{"Brill"}, sizeFlags},
		{"bench", cmdBench, []string{"-kernels", "Brill"}, sizeFlags},
		{"table1", cmdTable1, nil, sizeFlags},
		{"table2", cmdTable2, nil, []string{"j", "segments"}},
		{"table3", cmdTable3, nil, []string{"j", "segments"}},
		{"table4", cmdTable4, nil, []string{"j", "segments"}},
	}
	for _, c := range cases {
		for _, flag := range c.flags {
			args := append(append([]string(nil), c.base...), "-"+flag, "-1")
			if code := exitCode(c.run(args)); code != exitUsage {
				t.Errorf("%s %v: exit %d, want %d", c.cmd, args, code, exitUsage)
			}
		}
	}
	// Several negative flags at once.
	if code := exitCode(cmdRun([]string{"-bench", "Brill", "-scale", "-1", "-input", "-5", "-j", "-3"})); code != exitUsage {
		t.Errorf("run -scale -1 -input -5 -j -3: exit %d, want %d", code, exitUsage)
	}
}

// TestResumeRejectsNegativeCheckpointFlags: resume takes its size flags
// from the checkpoint, and holds them to the same rule.
func TestResumeRejectsNegativeCheckpointFlags(t *testing.T) {
	for _, bad := range []ckpt.Meta{
		{Flags: map[string]string{"scale": "-1"}},
		{Flags: map[string]string{"input": "-5"}},
		{Workers: -3},
		{Segments: -2},
	} {
		m := ckpt.Meta{Command: "run", Engine: "nfa", Workers: bad.Workers, Segments: bad.Segments,
			Flags: map[string]string{"bench": "Brill", "scale": "0.01", "input": "1000", "seed": "1"}}
		for k, v := range bad.Flags {
			m.Flags[k] = v
		}
		b, err := (&ckpt.Checkpoint{Meta: m}).EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if code := exitCode(cmdResume([]string{path})); code != exitUsage {
			t.Errorf("resume of a checkpoint with %+v: exit %d, want %d", bad, code, exitUsage)
		}
	}
}
