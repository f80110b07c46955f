package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the agreement check
// reads: each end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spreads printed here are the ones the benchmark's driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// runAgree runs two alternating sets of k full passes of the same build
// and checks that, for every pairing of end-to-end metric and workload,
// the two sets' medians agree within the metric's bound. It prints a
// markdown report and returns 1 on any pair outside its bound.
func runAgree(env *environment, todo []*spec, seed uint64, seconds, k int) int {
	raw, err := os.ReadFile(filepath.Join(env.benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}

	// values[set][workload][metric] collects one value per pass.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
	}
	for pass := 0; pass < 2*k; pass++ {
		set := pass % 2
		for _, sp := range todo {
			fmt.Fprintf(os.Stderr, "bench: agreement pass %d/%d (set %c): %s\n", pass+1, 2*k, 'A'+set, sp.name)
			out, err := runGuarded(func() (*runOutput, error) {
				return runE2E(env, sp, seed+uint64(pass), seconds)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			if !out.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed\n", sp.name, out.Failed, out.Attempted)
				return 1
			}
			if values[set][sp.name] == nil {
				values[set][sp.name] = map[string][]float64{}
			}
			for name, m := range out.Metrics {
				values[set][sp.name][name] = append(values[set][sp.name][name], m.Value)
			}
		}
	}

	fmt.Printf("# Agreement of two sets of %d passes of one build\n\n", k)
	fmt.Println("Sets A and B alternate (A B A B …), every pass on its own seed. `gap` is how much worse")
	fmt.Println("B's median is than A's, as a share of A's; a pair passes while |gap| ≤ bound. `spread` is")
	fmt.Println("(Q3 − Q1) ÷ median over all passes of both sets.")
	fmt.Println()
	env.print(seed, seconds)
	fmt.Println()
	fmt.Println("| workload | metric | unit | A median [Q1, Q3] | B median [Q1, Q3] | gap | spread | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, sp := range todo {
		for _, m := range bf.EndToEnd {
			a, b := values[0][sp.name][m.Name], values[1][sp.name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(os.Stderr, "bench: %s never reported %s\n", sp.name, m.Name)
				return 1
			}
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if m.Better == "higher" {
				gap = -gap
			}
			all := append(append([]float64(nil), a...), b...)
			q1, q3 := quartiles(all)
			verdict := "ok"
			if math.Abs(gap) > m.Bound {
				verdict = "**OUTSIDE**"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %+.4f | %.4f | %.2f | %s |\n",
				sp.name, m.Name, m.Unit, fiveNum(a), fiveNum(b), gap, (q3-q1)/median(all), m.Bound, verdict)
		}
	}
	fmt.Printf("\n%d of %d pairs outside their bound.\n", bad, len(todo)*len(bf.EndToEnd))
	if bad > 0 {
		return 1
	}
	return 0
}

func fiveNum(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}
