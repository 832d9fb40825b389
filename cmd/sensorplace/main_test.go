package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voltsense/internal/mat"
	"voltsense/internal/traceio"
)

func randm(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.Zeros(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// synthData writes a rank-4 latent-factor dataset (20 candidates, 5 monitored
// nodes, 120 samples) as the two CSVs run expects, returning their paths.
func synthData(t *testing.T) (xPath, fPath string) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	h := randm(rng, 4, 120)
	x := mat.Mul(randm(rng, 20, 4), h)
	f := mat.Mul(randm(rng, 5, 4), h)
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			// Voltage-like offsets; the tiny noise keeps OLS refits well-posed
			// when more sensors than latent factors are selected.
			x.Set(i, j, 1+0.05*x.At(i, j)+1e-4*rng.NormFloat64())
		}
	}
	for i := 0; i < f.Rows(); i++ {
		for j := 0; j < f.Cols(); j++ {
			f.Set(i, j, 1+0.05*f.At(i, j))
		}
	}
	dir := t.TempDir()
	write := func(name string, m *mat.Matrix) string {
		path := filepath.Join(dir, name)
		w, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := traceio.WriteMatrixCSV(w, m, nil); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("x.csv", x), write("f.csv", f)
}

func TestRunCriterionPlacement(t *testing.T) {
	xPath, fPath := synthData(t)
	for _, crit := range []string{"dopt", "eopt"} {
		var out bytes.Buffer
		err := run([]string{"-x", xPath, "-f", fPath, "-count", "5", "-criterion", crit}, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", crit, err, out.String())
		}
		if !strings.Contains(out.String(), crit+" selected 5 sensors") {
			t.Errorf("%s: missing selection line in output:\n%s", crit, out.String())
		}
		if !strings.Contains(out.String(), "held-out relative prediction error") {
			t.Errorf("%s: missing held-out accuracy line:\n%s", crit, out.String())
		}
	}
}

func TestRunMixedBudget(t *testing.T) {
	xPath, fPath := synthData(t)
	var out bytes.Buffer
	err := run([]string{"-x", xPath, "-f", fPath, "-budget", "16", "-rank", "3",
		"-class-noise", "0.004,0.05"}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "budget 16 placed") {
		t.Errorf("missing mixed placement line in output:\n%s", out.String())
	}
}

// TestRunFlagConflicts pins every mutual-exclusion rule the usage text
// documents: each conflicting combination must fail fast with a message
// naming the clash, before any data is read.
func TestRunFlagConflicts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"lambda and count", []string{"-lambda", "0.1", "-count", "4"}, "exactly one of -lambda or -count"},
		{"neither lambda nor count", nil, "exactly one of -lambda or -count"},
		{"criterion with lambda", []string{"-criterion", "dopt", "-lambda", "0.1"}, "use -count, not -lambda"},
		{"unknown criterion", []string{"-criterion", "bogus", "-count", "4"}, "unknown criterion"},
		{"budget with count", []string{"-budget", "8", "-count", "4"}, "-budget replaces -lambda/-count"},
		{"budget with criterion", []string{"-budget", "8", "-criterion", "dopt"}, "mixed-class greedy"},
		{"budget with fallbacks", []string{"-budget", "8", "-fallback-budget", "1"}, "cannot combine"},
		{"class-noise without budget", []string{"-count", "4", "-class-noise", "0.01,0.04"}, "only applies to -budget"},
		{"malformed class-noise", []string{"-budget", "8", "-class-noise", "0.01"}, "want REFVAR,LOWVAR"},
		{"rank and energy", []string{"-count", "4", "-rank", "2", "-energy", "0.9"}, "at most one of -rank and -energy"},
	}
	xPath, fPath := synthData(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(append([]string{"-x", xPath, "-f", fPath}, tc.args...), &out)
			if err == nil {
				t.Fatalf("expected error containing %q, got success:\n%s", tc.want, out.String())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestRunCountTargeting drives the group-lasso count placement, dense and in
// a rank-3 POD basis of the monitored nodes: both must land on the requested
// count, and the reduced run must report the basis rank of its selection.
func TestRunCountTargeting(t *testing.T) {
	xPath, fPath := synthData(t)
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"dense", nil, []string{"count targeting reached 4 sensors (μ="}},
		{"rank 3", []string{"-rank", "3"}, []string{
			"count targeting reached 4 sensors (μ=", "POD rank 3,",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append([]string{"-x", xPath, "-f", fPath, "-count", "4"}, tc.args...)
			if err := run(args, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			for _, w := range append(tc.want, "held-out relative prediction error") {
				if !strings.Contains(out.String(), w) {
					t.Errorf("missing %q in output:\n%s", w, out.String())
				}
			}
		})
	}
}

// TestRunRankRefitsDense: -rank only shapes the selection solve. A rank-5
// basis keeps all of the five monitored nodes' energy, so it selects the
// dense run's sensors, and the refit is the same dense Eq. 17 model: the
// two artifacts must match byte for byte.
func TestRunRankRefitsDense(t *testing.T) {
	xPath, fPath := synthData(t)
	dir := t.TempDir()
	artifact := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{"-x", xPath, "-f", fPath, "-count", "4", "-model", path}, extra...)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dense := artifact("dense.json")
	reduced := artifact("rank5.json", "-rank", "5")
	if !bytes.Equal(dense, reduced) {
		t.Errorf("-rank 5 artifact differs from the dense one:\n%s\nvs\n%s", reduced, dense)
	}
}
