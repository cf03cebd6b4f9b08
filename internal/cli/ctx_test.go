package cli

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunContextCancel proves the long-running subcommands abort with
// context.Canceled under a canceled context — the contract behind
// cmd/hypermine's SIGINT handling — and that RunContext(Background)
// behaves exactly like Run.
func TestRunContextCancel(t *testing.T) {
	prices, dir := fixture(t)
	tablePath := filepath.Join(dir, "table.csv")
	run(t, "discretize", "-in", prices, "-out", tablePath, "-k", "3")

	tb, err := loadTable(tablePath, 0)
	if err != nil {
		t.Fatal(err)
	}
	head := tb.AttrName(0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"build", "-in", tablePath, "-out", filepath.Join(dir, "m.snap")},
		{"rules", "-in", tablePath, "-node", head},
		{"frequent", "-in", tablePath},
		{"classify", "-train", tablePath},
	} {
		var buf bytes.Buffer
		err := New(&buf).RunContext(ctx, args)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v under canceled ctx: want context.Canceled, got %v", args, err)
		}
	}

	// Uncanceled RunContext matches Run byte for byte (same-named
	// outputs in sibling dirs so the printed paths agree modulo dir).
	dirA, dirB := t.TempDir(), t.TempDir()
	var a, b bytes.Buffer
	if err := New(&a).Run([]string{"build", "-in", tablePath, "-out", filepath.Join(dirA, "m.snap")}); err != nil {
		t.Fatal(err)
	}
	if err := New(&b).RunContext(context.Background(), []string{"build", "-in", tablePath, "-out", filepath.Join(dirB, "m.snap")}); err != nil {
		t.Fatal(err)
	}
	outA := strings.ReplaceAll(a.String(), dirA, "DIR")
	outB := strings.ReplaceAll(b.String(), dirB, "DIR")
	if outA != outB {
		t.Fatalf("RunContext(Background) output differs:\n%s\nvs\n%s", outB, outA)
	}
}
