package memsys

// ForcePartitions sets the class count of the Systems built from now on
// and sends every batch down the partitioned path; 0 restores the
// GOMAXPROCS default. It is the test seam for external test packages.
func ForcePartitions(n int) { partitionsForTest = n }
