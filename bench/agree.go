package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -agree and the tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root (the working
// directory, or its parent when run from bench/).
func loadSpec() (*benchmarkSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// savedRuns reads a file of saved run output — the header and result lines
// of any number of untraced runs — into per-workload metric samples.
func savedRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Run     *header  `json:"run"`
			Metrics *metrics `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Run != nil:
			workload = ""
			if line.Run.Trace == 0 {
				workload = line.Run.Workload
			}
		case line.Metrics != nil && workload != "":
			if runs[workload] == nil {
				runs[workload] = map[string][]float64{}
			}
			for name, m := range *line.Metrics {
				runs[workload][name] = append(runs[workload][name], m.Value)
			}
			workload = ""
		}
	}
	return runs, sc.Err()
}

// runAgree compares two sets of saved runs of the same code, per workload
// and end-to-end metric, against the BENCHMARK.json bounds: each set's
// median and quartiles, "unresolved" where a set's spread (quartile
// distance over median) exceeds the bound, and "DISAGREE" where the medians
// differ by more than the bound. It returns the exit status: 1 on any
// disagreement or missing data.
func runAgree(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -agree needs two files of saved runs")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, p := range args {
		if sets[i], err = savedRuns(p); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	bad, err := agree(spec, sets[0], sets[1], w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d metric(s) disagree\n", bad)
		return 1
	}
	fmt.Fprintln(w, "all metrics agree within their bounds")
	return 0
}

func agree(spec *benchmarkSpec, a, b map[string]map[string][]float64, w io.Writer) (int, error) {
	var missing []string
	bad := 0
	names := make([]string, 0, len(spec.Workloads))
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-12s %5s %12s %12s %12s %8s %12s %12s %12s %8s %7s  %s\n",
		"workload", "metric", "bound", "a.q1", "a.median", "a.q3", "a.sprd", "b.q1", "b.median", "b.q3", "b.sprd", "diff", "verdict")
	for _, wl := range names {
		if len(a[wl]) == 0 || len(b[wl]) == 0 {
			missing = append(missing, wl)
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				missing = append(missing, wl+"/"+m.Name)
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			sa, sb := (a3-a1)/am, (b3-b1)/bm
			diff := (bm - am) / am
			verdict := "agree"
			switch {
			case math.Abs(diff) > m.Bound:
				verdict = "DISAGREE"
				bad++
			case sa > m.Bound || sb > m.Bound || len(va) < 3 || len(vb) < 3:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-12s %5.2f %12.5g %12.5g %12.5g %8.4f %12.5g %12.5g %12.5g %8.4f %+7.4f  %s (n=%d/%d)\n",
				wl, m.Name, m.Bound, a1, am, a3, sa, b1, bm, b3, sb, diff, verdict, len(va), len(vb))
		}
	}
	if len(missing) > 0 {
		return bad, errors.New("no runs in one of the sets for: " + fmt.Sprint(missing))
	}
	return bad, nil
}
