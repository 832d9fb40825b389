// Criteria shootout: run every registered placement criterion — the paper's
// group lasso, the Eagle-Eye baseline, D-/E-optimal, FrameSense and
// worst-case — against the same chip data and rank them on held-out
// detection quality and placement wall-clock (DESIGN.md §13). Then place a
// heterogeneous network under a cost budget: quiet reference sensors vs
// cheap noisy ones, refit by GLS so each reading is weighted by its
// precision.
package main

import (
	"fmt"
	"log"

	"voltsense"
)

func main() {
	fmt.Println("building pipeline...")
	p, err := voltsense.NewPipeline(voltsense.QuickConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Every criterion, 8 sensors each, one shared standardization + candidate
	// POD fit; the mixed row spends the same budget 8 reference sensors would
	// cost. Rows come back ranked by held-out total error.
	const q = 8
	spec := voltsense.DefaultSensorClassSpec
	d, err := p.CriteriaShootout(q, nil, spec, float64(q)*spec.RefCost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(d.Render())

	// The same machinery on caller-supplied data: pick one criterion by name
	// and refit the paper's runtime model on its selection.
	ds := &voltsense.Dataset{X: p.Train.CandV, F: p.Train.CritV}
	cp, err := voltsense.PlaceWithCriterion(ds, "dopt", q, voltsense.CriterionConfig{})
	if err != nil {
		log.Fatal(err)
	}
	pred, err := voltsense.BuildPredictor(ds, cp.Selected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndopt on raw data picked sites %v (%d model outputs)\n",
		cp.Selected, len(pred.Model.C))

	// Heterogeneous placement: the budget buys a mix of device classes, and
	// the GLS refit trusts reference readings 16x more than low-cost ones.
	mp, prob, err := voltsense.PlaceMixedSensors(ds, spec, float64(q)*spec.RefCost, voltsense.CriterionConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ref, low := mp.CountByClass()
	if _, err := voltsense.BuildGLSPredictor(prob, mp.Selected, mp.NoiseVariances(spec)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("budget %.0f bought %d reference + %d low-cost sensors (cost %.0f) at sites %v\n",
		float64(q)*spec.RefCost, ref, low, mp.Cost, mp.Selected)
}
