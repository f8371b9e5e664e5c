package figures

// Tests for the shared-file coherence suite: the multi-writer
// acceptance bar (the run's built-in audit fails unless every server
// and a homed getattr agree on the final size) and the coherence
// overhead shape.

import "testing"

// TestSharedFileCoherent is the harness half of the cross-client
// coherence acceptance: K writers interleaving appends to one striped
// file must leave every server's local size and a homed getattr
// agreeing on the file's end — sfRun fails on its built-in audit
// otherwise. Short mode runs a small file over 1 and 2 servers; the
// full run adds the suite's widest point.
func TestSharedFileCoherent(t *testing.T) {
	c := DefaultConfig()
	chunks := 4
	axis := []int{1, 2}
	if !testing.Short() {
		chunks = sfChunksPerWriter
		axis = append(axis, 8)
	}
	for _, s := range axis {
		r, err := c.sfRun(s, chunks)
		if err != nil {
			t.Fatalf("%d servers: %v", s, err)
		}
		t.Logf("%d servers: %.1f MB/s, %d OpSetSize RPCs for %d writes (%.0f%%)",
			s, r.mbps, r.setSizeRPCs, r.writeChunks, r.coherencePct)
	}
}

// TestSharedFileCoherenceOverheadShape pins the protocol's cost
// profile: on one server the reconciliation fan has nobody to reach
// (zero OpSetSize RPCs), and on N servers it issues at most N-1 per
// size-extending write.
func TestSharedFileCoherenceOverheadShape(t *testing.T) {
	c := DefaultConfig()
	one, err := c.sfRun(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if one.setSizeRPCs != 0 {
		t.Errorf("1 server issued %d OpSetSize RPCs, want 0", one.setSizeRPCs)
	}
	two, err := c.sfRun(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if two.setSizeRPCs == 0 {
		t.Error("2 servers issued no OpSetSize RPCs; multi-writer appends must reconcile")
	}
	if max := two.writeChunks * 1 * 4; two.setSizeRPCs > max {
		t.Errorf("2 servers issued %d OpSetSize RPCs, want <= %d (N-1 per write with bounded stale retries)", two.setSizeRPCs, max)
	}
}
