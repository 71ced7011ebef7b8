package main

// Example runs the program; `go test` checks its output, which the
// deterministic simulation reproduces exactly.
func Example() {
	main()
	// Output:
	// AMPI ring, 64 migratable ranks on 4 cores, hog on core 3:
	//   interference-free:   1.60 s
	//   no LB:               3.01 s  (+88%)
	//   RefineLB:            2.17 s  (+35%)
}
