package main

// dominates reports whether design a is at least as good as b in both
// time and watts and strictly better in one (lower is better in both).
func dominates(aTime, aWatts, bTime, bWatts float64) bool {
	return aTime <= bTime && aWatts <= bWatts && (aTime < bTime || aWatts < bWatts)
}

// firstDominated is the benchmark's own brute-force O(n²) Pareto test: it
// returns the index of the first point some other point dominates, or -1
// when the points are mutually non-dominated. It shares no code with the
// search package's incremental staircase, so it can check that front.
func firstDominated(times, watts []float64) int {
	for i := range times {
		for j := range times {
			if i != j && dominates(times[j], watts[j], times[i], watts[i]) {
				return i
			}
		}
	}
	return -1
}
