package main

// Example runs the program; `go test` checks its output, which the
// deterministic simulation reproduces exactly.
func Example() {
	main()
	// Output:
	// interference-free baseline:   2.98 s
	// interfered, no LB:            5.96 s  (timing penalty 100.0%)
	// interfered, RefineLB:         4.28 s  (timing penalty  43.7%, 20 objects migrated)
	// penalty reduction:           56.3%
}
