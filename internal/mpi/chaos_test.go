package mpi_test

import (
	"testing"
	"time"

	"mudbscan/internal/chaos"
	"mudbscan/internal/mpi"
)

// TestCollectivesOverChaos runs every primitive — ring send/recv,
// Alltoall, Barrier, Bcast and Allgather — at 8 ranks
// over the full eventually-delivering fault plan. The collectives' frames
// cross the transport like any other, so the plan damages them too.
func TestCollectivesOverChaos(t *testing.T) {
	retry := mpi.RetryPolicy{BaseTimeout: time.Millisecond, MaxTimeout: 10 * time.Millisecond, MaxAttempts: 14}
	for seed := int64(1); seed <= 5; seed++ {
		net := chaos.New(chaos.Eventual(seed))
		if _, err := mpi.RunWithOptions(8, mpi.Options{Transport: net, Retry: retry}, mpi.CollectiveWorkload); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
