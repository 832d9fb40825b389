// Package traceio persists and loads the data matrices the methodology
// consumes, so voltage samples can cross process (and tool) boundaries:
// export training sets for offline analysis, or import measurements taken
// by an external grid simulator or silicon instrumentation.
//
// The format is deliberately plain CSV: one header row naming the series,
// then one row per sample (i.e. the transpose of the in-memory layout,
// because row-per-sample is what spreadsheet and dataframe tools expect).
// Matrices follow the paper's in-memory convention everywhere else: rows
// are variables, columns are samples.
package traceio

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"voltsense/internal/mat"
)

// WriteMatrixCSV writes m (rows = variables, cols = samples) as CSV with
// one row per sample. names labels the variables; nil generates v0, v1, ...
func WriteMatrixCSV(w io.Writer, m *mat.Matrix, names []string) error {
	if names == nil {
		names = make([]string, m.Rows())
		for i := range names {
			names[i] = fmt.Sprintf("v%d", i)
		}
	}
	if len(names) != m.Rows() {
		return fmt.Errorf("traceio: %d names for %d variables", len(names), m.Rows())
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(names); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	row := make([]string, m.Rows())
	for j := 0; j < m.Cols(); j++ {
		for i := 0; i < m.Rows(); i++ {
			row[i] = strconv.FormatFloat(m.At(i, j), 'g', 17, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("traceio: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// ReadMatrixCSV reads a CSV written by WriteMatrixCSV (or any header + one
// row per sample layout), returning the matrix in rows-are-variables form
// plus the header names. Non-finite values (NaN, ±Inf) are rejected with a
// positioned error, mirroring core.LoadPredictor's hardening: a corrupt
// measurement must fail at import time, not poison a fit downstream.
func ReadMatrixCSV(r io.Reader) (*mat.Matrix, []string, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("traceio: %w", err)
	}
	if len(records) < 1 {
		return nil, nil, fmt.Errorf("traceio: empty input")
	}
	names := records[0]
	nVars := len(names)
	nSamples := len(records) - 1
	if nVars == 0 {
		return nil, nil, fmt.Errorf("traceio: header has no columns")
	}
	m := mat.Zeros(nVars, nSamples)
	for j := 0; j < nSamples; j++ {
		rec := records[j+1]
		if len(rec) != nVars {
			return nil, nil, fmt.Errorf("traceio: sample %d has %d fields, want %d", j, len(rec), nVars)
		}
		for i, field := range rec {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("traceio: sample %d field %q: %w", j, names[i], err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("traceio: sample %d field %q: non-finite value %q", j, names[i], field)
			}
			m.Set(i, j, v)
		}
	}
	return m, names, nil
}

// SampleWriter appends samples row by row to a CSV stream in the
// WriteMatrixCSV layout — the streaming counterpart used by paths that
// record samples as they arrive (e.g. the serving tier's feedback log)
// instead of materializing a matrix first. Every appended row is flushed,
// so a crashed process loses at most the row being written.
type SampleWriter struct {
	cw      *csv.Writer
	nFields int
	row     []string
	written int
}

// NewSampleWriter writes the header row and returns the writer. names must
// be non-empty; each subsequent row carries exactly len(names) values.
func NewSampleWriter(w io.Writer, names []string) (*SampleWriter, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("traceio: sample writer needs at least one column")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(names); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return &SampleWriter{cw: cw, nFields: len(names), row: make([]string, len(names))}, nil
}

// AppendSamples writes one CSV row per sample and flushes. A width mismatch
// or non-finite value fails before anything of the offending row is written,
// keeping the stream loadable by ReadMatrixCSV.
func (sw *SampleWriter) AppendSamples(samples ...[]float64) error {
	for _, s := range samples {
		if len(s) != sw.nFields {
			return fmt.Errorf("traceio: sample %d has %d values, want %d", sw.written, len(s), sw.nFields)
		}
		for i, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("traceio: sample %d field %d: non-finite value %v", sw.written, i, v)
			}
			sw.row[i] = strconv.FormatFloat(v, 'g', 17, 64)
		}
		if err := sw.cw.Write(sw.row); err != nil {
			return fmt.Errorf("traceio: %w", err)
		}
		sw.written++
	}
	sw.cw.Flush()
	if err := sw.cw.Error(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// Written returns the number of sample rows appended so far.
func (sw *SampleWriter) Written() int { return sw.written }

// Dataset bundles the two matrices of a placement problem for persistence.
type Dataset struct {
	X *mat.Matrix // candidate voltages, M-by-N
	F *mat.Matrix // monitored voltages, K-by-N
}

// WriteDataset writes X and F as two CSV streams. The sample counts must
// agree.
func WriteDataset(xw, fw io.Writer, ds *Dataset, xNames, fNames []string) error {
	if ds.X.Cols() != ds.F.Cols() {
		return fmt.Errorf("traceio: X has %d samples, F has %d", ds.X.Cols(), ds.F.Cols())
	}
	if err := WriteMatrixCSV(xw, ds.X, xNames); err != nil {
		return err
	}
	return WriteMatrixCSV(fw, ds.F, fNames)
}

// ReadDataset reads the two CSV streams of WriteDataset and validates that
// they describe the same samples.
func ReadDataset(xr, fr io.Reader) (*Dataset, error) {
	x, _, err := ReadMatrixCSV(xr)
	if err != nil {
		return nil, fmt.Errorf("traceio: reading X: %w", err)
	}
	f, _, err := ReadMatrixCSV(fr)
	if err != nil {
		return nil, fmt.Errorf("traceio: reading F: %w", err)
	}
	if x.Cols() != f.Cols() {
		return nil, fmt.Errorf("traceio: X has %d samples, F has %d", x.Cols(), f.Cols())
	}
	return &Dataset{X: x, F: f}, nil
}
