package mpi

// CollectiveWorkload lends collectiveWorkload to the external test package,
// which can import the fault injector (internal/chaos imports mpi).
var CollectiveWorkload = collectiveWorkload
