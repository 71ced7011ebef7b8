package main

// Example runs the program; `go test` checks its output, which the
// deterministic simulation reproduces exactly.
func Example() {
	main()
	// Output:
	// interference-free RefineLB baseline: 3.41 s
	//
	// strategy                     wall s  penalty %  migrations
	// ---------------------------  ------  ---------  ----------
	// noLB                         11.14   226.40     0
	// RefineLB (paper)             5.40    58.36      41
	// RefineInternalLB (ablation)  5.56    63.03      45
	// RefineSwapLB                 5.55    62.74      52
	// GreedyLB                     14.92   337.33     1088
	// ThresholdLB                  9.67    183.38     10
	// MigrationCostAwareLB         5.40    58.36      41
	//
	// RefineLB should beat noLB and the background-blind ablation while
	// migrating far fewer objects than GreedyLB.
}
