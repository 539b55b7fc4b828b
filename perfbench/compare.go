package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results in %s", dir)
	}
	var out []record
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// compare sets the untraced results in newDir against those in baseDir,
// workload by workload: each end-to-end metric's median and quartile
// spread on both sides, and whether the new median is worse than the
// base by more than the metric's bound (the ungated latencies are shown
// without a verdict). It refuses results measured on different hosts,
// and leaves out runs whose generator was invalid.
func compare(baseDir, newDir string) error {
	if newDir == "" {
		return errors.New("--compare needs --against")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	base, err := loadRecords(baseDir)
	if err != nil {
		return err
	}
	changed, err := loadRecords(newDir)
	if err != nil {
		return err
	}
	ref := base[0].Host
	for _, r := range append(append([]record(nil), base...), changed...) {
		if same, field := ref.sameHost(r.Host); !same {
			return fmt.Errorf("refusing to compare results from different hosts: %s differs (%v vs %v)", field, ref, r.Host)
		}
	}
	// Runs are set against runs of the same workload with the same
	// traffic shape.
	group := func(rs []record) map[string][]record {
		out := map[string][]record{}
		for _, r := range rs {
			if r.Trace == 0 && (r.Generator == nil || r.Generator.Valid) {
				key := strings.TrimSpace(r.Workload + " " + r.Shape)
				out[key] = append(out[key], r)
			}
		}
		return out
	}
	b, c := group(base), group(changed)
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	worse := 0
	for _, wl := range names {
		if len(c[wl]) == 0 {
			continue
		}
		fmt.Printf("%s (%d base runs, %d new runs)\n", wl, len(b[wl]), len(c[wl]))
		defs := append(append([]metricSpec(nil), spec.EndToEnd...), ungated...)
		for _, def := range defs {
			bv, cv := values(b[wl], def.Name), values(c[wl], def.Name)
			bm, cm := median(bv), median(cv)
			change := ratio(cm-bm, bm)
			worsening := change
			if def.Better == "higher" {
				worsening = -change
			}
			verdict := "within bound"
			switch {
			case def.Bound == 0:
				verdict = "not gated"
			case worsening > def.Bound:
				verdict = "WORSE beyond bound"
				worse++
			}
			fmt.Printf("  %-16s base %12.4f (IQR %.3f)  new %12.4f (IQR %.3f)  change %+7.2f%%  bound %3.0f%%  %s\n",
				def.Name, bm, spread(bv), cm, spread(cv), 100*change, 100*def.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse beyond their bound", worse)
	}
	return nil
}

func values(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			v = r.Ungated[name]
		}
		out[i] = v.Value
	}
	return out
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), quantile(xs, 0.5))
}
