package cli

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/timeseries"
)

// fixture writes a small prices CSV and returns its path plus the
// directory for derived artifacts.
func fixture(t *testing.T) (prices string, dir string) {
	t.Helper()
	dir = t.TempDir()
	cfg := timeseries.DefaultGenConfig()
	cfg.NumSeries = 24
	cfg.NumDays = 300
	u, err := timeseries.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prices = filepath.Join(dir, "prices.csv")
	f, err := os.Create(prices)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.WritePricesCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return prices, dir
}

// run executes one subcommand, failing the test on error, and returns
// the captured output.
func run(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := New(&buf).Run(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return buf.String()
}

func TestRunUsage(t *testing.T) {
	var buf bytes.Buffer
	app := New(&buf)
	if err := app.Run(nil); !errors.Is(err, ErrUsage) {
		t.Errorf("no args: %v", err)
	}
	if err := app.Run([]string{"help"}); !errors.Is(err, ErrUsage) {
		t.Errorf("help: %v", err)
	}
	if err := app.Run([]string{"bogus"}); !errors.Is(err, ErrUsage) {
		t.Errorf("unknown subcommand: %v", err)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	prices, dir := fixture(t)
	tablePath := filepath.Join(dir, "table.csv")
	testPath := filepath.Join(dir, "test.csv")
	snapPath := filepath.Join(dir, "model.snap")

	out := run(t, "discretize", "-in", prices, "-out", tablePath,
		"-out-test", testPath, "-split", "0.8", "-k", "3")
	if !strings.Contains(out, "wrote") {
		t.Errorf("discretize output: %q", out)
	}
	if _, err := os.Stat(testPath); err != nil {
		t.Fatalf("out-sample table missing: %v", err)
	}

	out = run(t, "build", "-in", tablePath, "-out", snapPath, "-config", "C1")
	if !strings.Contains(out, "directed edges") {
		t.Errorf("build output: %q", out)
	}

	out = run(t, "degrees", "-model", snapPath, "-top", "5")
	if !strings.Contains(out, "weighted-in") {
		t.Errorf("degrees output: %q", out)
	}

	out = run(t, "top-edges", "-model", snapPath, "-node", "XOM", "-top", "2")
	if !strings.Contains(out, "XOM") {
		t.Errorf("top-edges output: %q", out)
	}

	out = run(t, "similar", "-model", snapPath, "-a", "XOM", "-top", "3")
	if !strings.Contains(out, "most similar to XOM") {
		t.Errorf("similar output: %q", out)
	}
	out = run(t, "similar", "-model", snapPath, "-a", "XOM", "-b", "EMN")
	if !strings.Contains(out, "in-sim") || !strings.Contains(out, "distance") {
		t.Errorf("pairwise similar output: %q", out)
	}

	out = run(t, "cluster", "-model", snapPath, "-t", "4")
	if !strings.Contains(out, "cluster 0") {
		t.Errorf("cluster output: %q", out)
	}

	out = run(t, "dominator", "-model", snapPath, "-alg", "6", "-top", "0.4")
	if !strings.Contains(out, "dominator size") {
		t.Errorf("dominator output: %q", out)
	}
	out = run(t, "dominator", "-model", snapPath, "-alg", "5")
	if !strings.Contains(out, "covers") {
		t.Errorf("alg5 dominator output: %q", out)
	}

	out = run(t, "classify", "-train", tablePath, "-test", testPath, "-config", "C1")
	if !strings.Contains(out, "mean out-sample classification confidence") {
		t.Errorf("classify output: %q", out)
	}

	out = run(t, "rules", "-in", tablePath, "-node", "XOM", "-top", "3")
	if !strings.Contains(out, "=> {XOM=") && !strings.Contains(out, "no rules") {
		t.Errorf("rules output: %q", out)
	}

	out = run(t, "frequent", "-in", tablePath, "-min-support", "0.25", "-top", "3")
	if !strings.Contains(out, "frequent itemsets") {
		t.Errorf("frequent output: %q", out)
	}
}

func TestSubcommandErrors(t *testing.T) {
	prices, dir := fixture(t)
	tablePath := filepath.Join(dir, "table.csv")
	snapPath := filepath.Join(dir, "model.snap")
	run(t, "discretize", "-in", prices, "-out", tablePath)
	run(t, "build", "-in", tablePath, "-out", snapPath)

	app := New(new(bytes.Buffer))
	cases := [][]string{
		{"discretize", "-in", "/nonexistent.csv"},
		{"discretize", "-in", prices, "-out", tablePath, "-split", "1.5"},
		{"discretize", "-in", prices, "-out", tablePath, "-out-test", filepath.Join(dir, "x.csv")}, // -out-test without -split
		{"build", "-in", "/nonexistent.csv"},
		{"build", "-in", tablePath, "-config", "C9"},
		{"degrees", "-model", "/nonexistent.snap"},
		{"cluster", "-model", tablePath}, // a CSV table is not a snapshot
		{"top-edges", "-model", snapPath, "-node", "NOPE"},
		{"similar", "-model", snapPath, "-a", "NOPE"},
		{"similar", "-model", snapPath, "-a", "XOM", "-b", "NOPE"},
		{"dominator", "-model", snapPath, "-alg", "9"},
		{"dominator", "-model", snapPath, "-top", "NaN"},
		{"dominator", "-model", snapPath, "-top", "1.5"},
		{"frequent", "-in", tablePath, "-min-support", "NaN"},
		{"frequent", "-in", tablePath, "-min-confidence", "NaN"},
		{"build", "-in", tablePath, "-config", "custom", "-gamma1", "NaN"},
		{"build", "-in", tablePath, "-config", "custom", "-gamma2", "NaN"},
		{"classify", "-train", "/nonexistent.csv"},
		{"classify", "-train", tablePath, "-alg", "9"},
		{"rules", "-in", tablePath, "-node", "NOPE"},
	}
	for _, c := range cases {
		if err := app.Run(c); err == nil {
			t.Errorf("%v: want error", c)
		}
	}
}

func TestClassifyInSampleDefault(t *testing.T) {
	prices, dir := fixture(t)
	tablePath := filepath.Join(dir, "table.csv")
	run(t, "discretize", "-in", prices, "-out", tablePath)
	out := run(t, "classify", "-train", tablePath)
	if !strings.Contains(out, "in-sample") {
		t.Errorf("expected in-sample evaluation: %q", out)
	}
}

// TestModelSnapshotWorkflow covers the snapshot surface: build (mine
// -> snapshot, with or without rows), model load (verify + summary),
// and classify -model, which must agree with the mine-every-run
// result.
func TestModelSnapshotWorkflow(t *testing.T) {
	prices, dir := fixture(t)
	tablePath := filepath.Join(dir, "table.csv")
	snapPath := filepath.Join(dir, "model.snap")
	slimPath := filepath.Join(dir, "slim.snap")
	run(t, "discretize", "-in", prices, "-out", tablePath, "-k", "3")

	out := run(t, "build", "-in", tablePath, "-out", snapPath, "-config", "C1")
	if !strings.Contains(out, snapPath) {
		t.Errorf("build output: %q", out)
	}
	out = run(t, "model", "load", "-in", snapPath)
	if !strings.Contains(out, "directed edges") || strings.Contains(out, "rows omitted") {
		t.Errorf("model load output: %q", out)
	}

	// Row-less snapshots are smaller and marked.
	run(t, "build", "-in", tablePath, "-out", slimPath, "-config", "C1", "-omit-rows")
	full, _ := os.Stat(snapPath)
	slim, _ := os.Stat(slimPath)
	if slim.Size() >= full.Size() {
		t.Errorf("row-less snapshot (%d) not smaller than full (%d)", slim.Size(), full.Size())
	}
	out = run(t, "model", "load", "-in", slimPath)
	if !strings.Contains(out, "rows omitted") {
		t.Errorf("slim model load output: %q", out)
	}

	// -model answers must agree with the re-mining path.
	mined := run(t, "classify", "-train", tablePath, "-config", "C1")
	snapped := run(t, "classify", "-model", snapPath)
	if mined != snapped {
		t.Errorf("classify -model drifted:\nmined:   %q\nsnapshot: %q", mined, snapped)
	}
	// Graph queries answer the same on row-less snapshots; classify
	// fails with the rows-omitted error.
	for _, q := range [][]string{
		{"degrees", "-top", "5"},
		{"top-edges", "-node", "XOM"},
		{"similar", "-a", "XOM", "-top", "3"},
		{"cluster", "-t", "4"},
		{"dominator"},
	} {
		full := run(t, append(q, "-model", snapPath)...)
		slim := run(t, append(q, "-model", slimPath)...)
		if full != slim {
			t.Errorf("%v differs on the row-less snapshot:\nfull: %q\nslim: %q", q, full, slim)
		}
	}
	app := New(new(bytes.Buffer))
	if err := app.Run([]string{"classify", "-model", slimPath}); err == nil || !strings.Contains(err.Error(), "without training rows") {
		t.Errorf("classify on row-less snapshot: %v", err)
	}

	// Error surfaces.
	for _, c := range [][]string{
		{"model"},
		{"model", "bogus"},
		{"model", "save"}, // build writes snapshots
		{"model", "load", "-in", "/nonexistent.snap"},
		{"model", "load", "-in", tablePath}, // not a snapshot
		{"similar", "-model", "/nonexistent.snap", "-a", "XOM"},
	} {
		if err := app.Run(c); err == nil {
			t.Errorf("%v: want error", c)
		}
	}
}

// TestWriteSnapshotFileKeepsTarget: a snapshot write whose encode
// fails leaves an existing target byte-identical and no temporary
// file behind.
func TestWriteSnapshotFileKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "model.snap")
	want := []byte("the only copy of a model")
	if err := os.WriteFile(target, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshotFile(target, &core.Model{}, core.SaveOptions{}); err == nil {
		t.Fatal("encoding an empty model succeeded")
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("target changed to %q", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the target", len(entries))
	}
}

// TestModelAppend: `model append` extends a snapshot by a rows CSV
// whose header matches the model's attributes, and the written
// snapshot loads with the extra rows. A renamed header column and a
// missing one each fail with an error that names the column, and write
// nothing.
func TestModelAppend(t *testing.T) {
	prices, dir := fixture(t)
	tablePath := filepath.Join(dir, "table.csv")
	snapPath := filepath.Join(dir, "model.snap")
	run(t, "discretize", "-in", prices, "-out", tablePath, "-k", "3")
	run(t, "build", "-in", tablePath, "-out", snapPath, "-config", "C1")
	raw, err := os.ReadFile(tablePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	header, rows := strings.Split(lines[0], ","), lines[1:21]
	base := len(lines) - 1

	writeRows := func(name string, header []string, rows []string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		body := strings.Join(append([]string{strings.Join(header, ",")}, rows...), "\n") + "\n"
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	outPath := filepath.Join(dir, "appended.snap")
	out := run(t, "model", "append", "-in", snapPath, "-rows", writeRows("rows.csv", header, rows), "-out", outPath)
	if want := fmt.Sprintf("appended 20 rows: %d total", base+20); !strings.Contains(out, want) {
		t.Errorf("model append output %q, want %q", out, want)
	}
	out = run(t, "model", "load", "-in", outPath)
	if want := fmt.Sprintf("%d rows", base+20); !strings.Contains(out, want) {
		t.Errorf("model load of the appended snapshot: %q, want %q", out, want)
	}

	renamed := append([]string(nil), header...)
	renamed[3] = "RENAMED"
	narrow := make([]string, len(rows))
	for i, r := range rows {
		narrow[i] = r[:strings.LastIndex(r, ",")]
	}
	for _, c := range []struct {
		name, path string
		wantCol    string
	}{
		{"renamed header", writeRows("renamed.csv", renamed, rows), `column 3 is "RENAMED", want "` + header[3] + `"`},
		{"narrow header", writeRows("narrow.csv", header[:len(header)-1], narrow), fmt.Sprintf("column %d %q is missing", len(header)-1, header[len(header)-1])},
	} {
		bad := filepath.Join(dir, "bad.snap")
		err := New(new(bytes.Buffer)).Run([]string{"model", "append", "-in", snapPath, "-rows", c.path, "-out", bad})
		if err == nil || !strings.Contains(err.Error(), c.wantCol) {
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.wantCol)
		}
		if _, err := os.Stat(bad); !os.IsNotExist(err) {
			t.Errorf("%s: a failed append wrote %s", c.name, bad)
		}
	}
}
