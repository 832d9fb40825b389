package transfer

import (
	"bytes"
	"math/rand"
	"testing"

	"voltsense/internal/core"
)

// FuzzLoadPrior hammers the voltsense-prior/v1 loader with mutated priors
// and checks its contract: it never panics, and anything it accepts saves,
// reloads and saves again to the same bytes with the same fingerprint.
func FuzzLoadPrior(f *testing.F) {
	// Seed: a real prior pooled from two goldens.
	rng := rand.New(rand.NewSource(11))
	sel := []int{1, 4, 9}
	golden := makeChip(rng, len(sel), 4)
	prior, err := FitPrior([]*core.Predictor{
		golden.predictor(sel, nil),
		golden.perturb(rng, 0.05).predictor(sel, nil),
	}, PriorConfig{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prior.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// Malformed seeds steering the fuzzer at validation edges.
	for _, s := range []string{
		``,
		`{}`,
		`{"format":"voltsense-prior/v1"}`,
		`{"format":"voltsense-predictor/v1","selected_sensors":[1],"mean":[[1,2]],"precision":[1,1],"noise_var":1e-4,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[3,1],"mean":[[1,2,3]],"precision":[1,1,1],"noise_var":1e-4,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[1,3],"mean":[[1,2,3]],"precision":[1,0,1],"noise_var":1e-4,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[1,3],"mean":[[1,2]],"precision":[1,1,1],"noise_var":1e-4,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[1,3],"mean":[[1,2,3],[4,5]],"precision":[1,1,1],"noise_var":1e-4,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[1],"mean":[[1,2]],"precision":[1,1],"noise_var":-1,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[1],"mean":[[1,2]],"precision":[1,1],"noise_var":1e-4,"goldens":0}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[-1],"mean":[[1e308,-0]],"precision":[1,1],"noise_var":1e-4,"goldens":1}`,
		`{"format":"voltsense-prior/v1","selected_sensors":[],"mean":[[1]],"precision":[1],"noise_var":1e-4,"goldens":1}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPrior(bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		var first bytes.Buffer
		if err := p.Save(&first); err != nil {
			t.Fatalf("accepted prior failed to save: %v", err)
		}
		p2, err := LoadPrior(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved prior rejected: %v", err)
		}
		var second bytes.Buffer
		if err := p2.Save(&second); err != nil {
			t.Fatalf("reloaded prior failed to save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save is not stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
		if p.Fingerprint() != p2.Fingerprint() {
			t.Fatal("fingerprint changed across save and reload")
		}
	})
}

// FuzzLoadDelta hammers the voltsense-delta/v1 loader the same way: it
// never panics, and anything it accepts saves, reloads and saves again to
// the same bytes.
func FuzzLoadDelta(f *testing.F) {
	// Seeds: a real delta from aligning a drifted chip, with its lineage
	// and without.
	rng := rand.New(rand.NewSource(12))
	sel := []int{2, 5, 7, 11}
	golden := makeChip(rng, len(sel), 3)
	prior, err := FitPrior([]*core.Predictor{golden.predictor(sel, nil)}, PriorConfig{})
	if err != nil {
		f.Fatal(err)
	}
	x, y := golden.perturb(rng, 0.15).sample(rng, 32, 1e-3)
	al, err := AlignChip(prior, x, y, AlignConfig{DeltaTol: 1e-6, Version: 3, Parent: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, lin := range []*core.Lineage{al.Predictor.Lineage, nil} {
		var buf bytes.Buffer
		if err := SaveDelta(&buf, al.Delta, lin); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	// Malformed seeds steering the fuzzer at validation edges.
	for _, s := range []string{
		``,
		`{}`,
		`{"format":"voltsense-delta/v1"}`,
		`{"format":"voltsense-prior/v1","prior_fingerprint":"00","rows":[]}`,
		`{"format":"voltsense-delta/v1","prior_fingerprint":"00","rows":[{"node":0,"cols":[0,1],"vals":[1]}]}`,
		`{"format":"voltsense-delta/v1","prior_fingerprint":"00","rows":[{"node":-4,"cols":[9],"vals":[-0]}]}`,
		`{"format":"voltsense-delta/v1","prior_fingerprint":"00","rows":[{"node":0,"cols":[],"vals":[]}]}`,
		`{"format":"voltsense-delta/v1","prior_fingerprint":"00","rows":null,
		  "lineage":{"version":1,"parent":1,"source":"prior","samples":3}}`,
		`{"format":"voltsense-delta/v1","prior_fingerprint":"00","rows":[],
		  "lineage":{"version":2,"parent":1,"source":"train","samples":3}}`,
		`{"format":"voltsense-delta/v1","prior_fingerprint":"00","rows":[],
		  "lineage":{"version":2,"parent":1,"source":"prior","samples":3,"live_te":0.5,"resid_std":1e-300}}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, lin, err := LoadDelta(bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		var first bytes.Buffer
		if err := SaveDelta(&first, d, lin); err != nil {
			t.Fatalf("accepted delta failed to save: %v", err)
		}
		d2, lin2, err := LoadDelta(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved delta rejected: %v", err)
		}
		var second bytes.Buffer
		if err := SaveDelta(&second, d2, lin2); err != nil {
			t.Fatalf("reloaded delta failed to save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save is not stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
