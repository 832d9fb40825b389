package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// reference holds the outputs stored for seeds 1 and 2 at paper scale, the
// exact-match half of the correctness gate. Other seeds check invariants
// only. Regenerate with -write-reference after a change that is meant to
// alter outputs.
type reference struct {
	Campaign struct {
		// CritNodes do not depend on the pipeline seed, so every campaign is
		// checked against them.
		CritNodes []int                      `json:"crit_nodes"`
		Seeds     map[string]*campaignResult `json:"seeds"`
	} `json:"campaign"`
	Scan map[string]*scanResult `json:"scan"` // keyed by trace run index
}

//go:embed testdata/reference.json
var referenceJSON []byte

func seedKey(s int64) string { return strconv.FormatInt(s, 10) }

// loadReference decodes the embedded reference.
func loadReference() (*reference, error) {
	ref := &reference{}
	if err := json.Unmarshal(referenceJSON, ref); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return ref, nil
}

// writeReference runs the first campaign and the first scan of seeds 1 and
// 2 at paper scale and stores their outputs at path.
func writeReference(path string) error {
	sc := paperScale()
	ref := &reference{Scan: map[string]*scanResult{}}
	ref.Campaign.Seeds = map[string]*campaignResult{}
	for _, seed := range []int64{1, 2} {
		cfg := sc.campaign
		cfg.Seed = pipelineSeed(seed, 0)
		res, _, err := campaignOnce(cfg, sc.tableQ)
		if err != nil {
			return err
		}
		ref.Campaign.CritNodes, res.CritNodes = res.CritNodes, nil
		ref.Campaign.Seeds[seedKey(cfg.Seed)] = res
		run := scanRun(seed, 0)
		sres, _, err := scanOnce(prepareScan(nil, 0, sc, run), sc)
		if err != nil {
			return err
		}
		ref.Scan[seedKey(int64(run))] = sres
	}
	data, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
