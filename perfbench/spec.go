package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricSpec is one metric as BENCHMARK.json names it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the driver reads: the metrics
// an untraced and a traced run report, their units, and the bounds.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root (the working
// directory).
func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the named metrics with their measured values, and fails
// on a metric the run did not measure or took no samples for.
func pick(defs []metricSpec, measured map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, def := range defs {
		v, ok := measured[def.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("BENCHMARK.json names %s, which this run does not measure", def.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("%s has no value: the run took no samples for it", def.Name)
		}
		out[def.Name] = metricValue{v, def.Unit}
	}
	return out, nil
}
