package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckGodocFlagsUndocumentedExports(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.go"), `// Package p.
package p

// Documented is fine.
func Documented() {}

func Undocumented() {}

type Bare struct{}

// Grouped doc covers both.
const (
	A = 1
	B = 2
)
`)
	problems, err := checkGodoc(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "Undocumented") || !strings.Contains(joined, "Bare") {
		t.Errorf("missing expected problems in %q", joined)
	}
	if strings.Contains(joined, "Documented") || strings.Contains(joined, "exported value A") {
		t.Errorf("false positives in %q", joined)
	}
}

func TestCheckGodocCleanOnRealPlacePackage(t *testing.T) {
	problems, err := checkGodoc(filepath.Join("..", "..", "internal", "place"))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Errorf("internal/place has undocumented exports:\n%s", strings.Join(problems, "\n"))
	}
}

func TestCheckFormatNames(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "doc.md")
	write(t, md, "Artifacts use voltsense-predictor/v1 and voltsense-prior/v1.\n\n```json\n{\"format\": \"voltsense-deltas/v1\"}\n```\n")
	problems, err := checkFormatNames(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], `"voltsense-deltas/v1"`) {
		t.Errorf("want exactly the voltsense-deltas/v1 violation, got %v", problems)
	}
}

func TestCommandFlagSetsFromRealRepo(t *testing.T) {
	cmds, err := commandFlagSets(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for cmd, flags := range map[string][]string{
		"voltserved":  {"prior", "calibrate-shrinkage", "calibrate-min-samples", "store"},
		"voltbench":   {"calibrate-every", "tenants", "streams"},
		"sensorplace": {"criterion"},
	} {
		set := cmds[cmd]
		if set == nil {
			t.Fatalf("no flag set extracted for %s", cmd)
		}
		for _, f := range flags {
			if !set[f] {
				t.Errorf("%s: flag %q not extracted; got %v", cmd, f, set)
			}
		}
	}
}

func TestCheckCommandFlags(t *testing.T) {
	cmds := map[string]map[string]bool{
		"voltserved":  {"store": true, "prior": true},
		"benchreport": {"compare": true},
	}
	dir := t.TempDir()
	md := filepath.Join(dir, "doc.md")
	write(t, md, strings.Join([]string{
		"Prose voltserved -nosuchprose mentions are not attributed.",
		"Inline `voltserved -prior golden.json` is fine; `voltserved -bogus` is not.",
		"",
		"```sh",
		"voltserved -store /var/lib/fleet \\",
		"  -prior golden.prior.json \\",
		"  -stale-flag 1",
		"voltserved -store s | benchreport -compare a.json",
		"benchreport -nope",
		"```",
	}, "\n")+"\n")
	problems, err := checkCommandFlags(md, cmds)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"-bogus", "-stale-flag", "-nope"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s violation in %q", want, joined)
		}
	}
	for _, miss := range []string{"-nosuchprose", "-prior", "-store", "-compare"} {
		if strings.Contains(joined, "flag "+miss+"\n") || strings.HasSuffix(joined, "flag "+miss) {
			t.Errorf("false positive %s in %q", miss, joined)
		}
	}
	if len(problems) != 3 {
		t.Errorf("want exactly 3 violations, got %v", problems)
	}
}

func TestCheckCriterionValues(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "doc.md")
	write(t, md, "Run `sensorplace -criterion eopt` or `-criterion=dopt`.\n\n```\nsensorplace -criterion nosuch\n```\n")
	problems, err := checkCriterionValues(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], `"nosuch"`) {
		t.Errorf("want exactly the nosuch violation, got %v", problems)
	}
}
