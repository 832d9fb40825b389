package traceio

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"voltsense/internal/mat"
)

func TestMatrixRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := rng.Intn(20)
		m := mat.Zeros(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		var buf bytes.Buffer
		if err := WriteMatrixCSV(&buf, m, nil); err != nil {
			return false
		}
		got, names, err := ReadMatrixCSV(&buf)
		if err != nil {
			return false
		}
		if len(names) != r {
			return false
		}
		return mat.Equalish(got, m, 0) // 17 significant digits round-trips exactly
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWriteMatrixCustomNames(t *testing.T) {
	m := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	var buf bytes.Buffer
	if err := WriteMatrixCSV(&buf, m, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,b\n") {
		t.Fatalf("header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	_, names, err := ReadMatrixCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestWriteMatrixBadNames(t *testing.T) {
	m := mat.Zeros(2, 1)
	if err := WriteMatrixCSV(&bytes.Buffer{}, m, []string{"only-one"}); err == nil {
		t.Fatal("expected error for name count mismatch")
	}
}

func TestReadMatrixErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"ragged":      "a,b\n1,2\n3\n",
		"non-numeric": "a\nx\n",
	}
	for name, in := range cases {
		if _, _, err := ReadMatrixCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Zeros(3, 10)
	f := mat.Zeros(2, 10)
	for j := 0; j < 10; j++ {
		for i := 0; i < 3; i++ {
			x.Set(i, j, rng.Float64())
		}
		for i := 0; i < 2; i++ {
			f.Set(i, j, rng.Float64())
		}
	}
	var xb, fb bytes.Buffer
	if err := WriteDataset(&xb, &fb, &Dataset{X: x, F: f}, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&xb, &fb)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(got.X, x, 0) || !mat.Equalish(got.F, f, 0) {
		t.Fatal("dataset did not round-trip")
	}
}

func TestDatasetSampleMismatch(t *testing.T) {
	ds := &Dataset{X: mat.Zeros(1, 3), F: mat.Zeros(1, 4)}
	if err := WriteDataset(&bytes.Buffer{}, &bytes.Buffer{}, ds, nil, nil); err == nil {
		t.Fatal("expected error")
	}
	var xb, fb bytes.Buffer
	if err := WriteMatrixCSV(&xb, mat.Zeros(1, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixCSV(&fb, mat.Zeros(1, 4), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDataset(&xb, &fb); err == nil {
		t.Fatal("expected error on read")
	}
}

func TestRoundTripPreservesSpecialValues(t *testing.T) {
	m := mat.FromRows([][]float64{{0, -0.0, 1e-300, 1e300, math.Pi}})
	var buf bytes.Buffer
	if err := WriteMatrixCSV(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadMatrixCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < m.Cols(); j++ {
		if got.At(0, j) != m.At(0, j) {
			t.Fatalf("col %d: %v != %v", j, got.At(0, j), m.At(0, j))
		}
	}
}

func TestReadMatrixRejectsNonFinite(t *testing.T) {
	cases := []struct{ in, wantPos string }{
		{"a,b\ninf,1\n", `sample 0 field "a"`},
		{"a,b\n1,-Inf\n", `sample 0 field "b"`},
		{"a,b\n1,2\nnan,3\n", `sample 1 field "a"`},
		{"a,b\n1,NaN\n", `sample 0 field "b"`},
	}
	for _, c := range cases {
		_, _, err := ReadMatrixCSV(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("input %q: non-finite value accepted", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantPos) || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("input %q: error %q lacks position %q", c.in, err, c.wantPos)
		}
	}
}

func TestSampleWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSampleWriter(&buf, []string{"s0", "s1", "f0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendSamples([]float64{0.9, 0.91, 0.88}); err != nil {
		t.Fatal(err)
	}
	// Every append flushes: the stream must be loadable mid-recording.
	m, names, err := ReadMatrixCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("mid-stream read: %v", err)
	}
	if m.Cols() != 1 || len(names) != 3 {
		t.Fatalf("mid-stream shape %dx%d names %v", m.Rows(), m.Cols(), names)
	}
	if err := sw.AppendSamples([]float64{0.8, 0.81, 0.79}, []float64{0.95, 0.94, 0.96}); err != nil {
		t.Fatal(err)
	}
	if sw.Written() != 3 {
		t.Fatalf("Written() = %d, want 3", sw.Written())
	}
	m, _, err = ReadMatrixCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 3 {
		t.Fatalf("final shape %dx%d, want 3x3", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 0.79 {
		t.Fatalf("value (2,1) = %v", m.At(2, 1))
	}
}

func TestSampleWriterErrors(t *testing.T) {
	if _, err := NewSampleWriter(&bytes.Buffer{}, nil); err == nil {
		t.Error("empty header accepted")
	}
	var buf bytes.Buffer
	sw, err := NewSampleWriter(&buf, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendSamples([]float64{1}); err == nil {
		t.Error("short row accepted")
	}
	if err := sw.AppendSamples([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if err := sw.AppendSamples([]float64{1, math.Inf(-1)}); err == nil {
		t.Error("-Inf accepted")
	}
	if sw.Written() != 0 {
		t.Errorf("rejected rows counted: %d", sw.Written())
	}
	if got := buf.String(); got != "a,b\n" {
		t.Errorf("rejected rows leaked into the stream: %q", got)
	}
}
