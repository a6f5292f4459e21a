package main

import (
	"bytes"
	"strings"
	"testing"

	"esti/internal/golden"
)

// The seven layouts CI has always run, each checked against the unsharded
// reference and perf's message count by the command itself, byte for byte:
// every layout's logit differences, traffic and cache bytes.
func TestGolden(t *testing.T) {
	golden.Run(t, run, []golden.Case{
		{Name: "ws1d-heads", Args: []string{"-ffn", "ws1d", "-attn", "heads"}},
		{Name: "ws1d-batch", Args: []string{"-ffn", "ws1d", "-attn", "batch"}},
		{Name: "ws2d-heads", Args: []string{"-ffn", "ws2d", "-attn", "heads"}},
		{Name: "ws2d-batch", Args: []string{"-ffn", "ws2d", "-attn", "batch"}},
		{Name: "wgxyz-batch", Args: []string{"-ffn", "wgxyz", "-attn", "batch"}},
		{Name: "mha-ws2d-heads", Args: []string{"-mha", "-ffn", "ws2d", "-attn", "heads"}},
		{Name: "int8-ws2d-batch", Args: []string{"-int8", "-ffn", "ws2d", "-attn", "batch"}},
	})
}

// runCmd runs the command in-process and returns its exit code and output.
func runCmd(args ...string) (int, string, string) {
	var out, errs bytes.Buffer
	code := run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// The 2D weight-stationary, batch-sharded parallel block sends 22 messages
// a chip a layer on 2×2×2 — 3+1+1+3 ring steps and 14 all-to-all
// messages — and perf prices the same.
func TestParallel2DBatchSends22(t *testing.T) {
	code, out, errs := runCmd("-ffn", "ws2d", "-attn", "batch")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "decode messages a chip a layer: 22 (perf prices 22)") {
		t.Errorf("output does not report 22 messages a chip a layer:\n%s", out)
	}
}

// A serial block runs the block body twice, and perf counts both sets.
func TestSerialBlockMatchesReference(t *testing.T) {
	code, out, errs := runCmd("-mha", "-ffn", "ws2d", "-attn", "heads")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "serial block") || !strings.Contains(out, "decode messages a chip a layer: 16 (perf prices 16)") {
		t.Errorf("serial 2D run does not report 16 messages a chip a layer:\n%s", out)
	}
}

func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{{"-chips", "6"}, {"-ffn", "ws3d"}, {"-attn", "rows"}, {"-nope"}} {
		if code, _, _ := runCmd(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
