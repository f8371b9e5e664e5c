package rfsrv

import "repro/internal/kernel"

// RepliesInFlight reports how many reply messages (headers, read data)
// are still staged under a send that has not completed (tests: zero
// once the engine drained).
func (s *Server) RepliesInFlight() int {
	n := 0
	for _, sr := range s.staged {
		if !sr.op.Done() {
			n++
		}
	}
	return n
}

// ZeroFrameRefs reports the reference count of the server's shared
// zero page (tests: back at its baseline once a hole read's send is
// done).
func (s *Server) ZeroFrameRefs() int { return s.zero.RefCount() }

// Read-only views of a cluster's configuration, for the tests that
// rebuild or audit one.

// LayoutPolicy returns the active policy and whether the layout
// machinery is engaged (false for policy-free and one-server clusters).
func (cl *Cluster) LayoutPolicy() (LayoutPolicy, bool) { return cl.policy, cl.policyOn }

// LayoutOf reports the layout class this client would use for the
// inode right now: the cached class, or LayoutStandard when the
// machinery is off or the inode has not been resolved yet.
func (cl *Cluster) LayoutOf(ino kernel.InodeID) LayoutClass { return cl.layoutCached(ino) }

// Replicas returns the replication factor R.
func (cl *Cluster) Replicas() int { return cl.pl.replicas }

// StripeSize returns the standard-layout stripe width in bytes.
func (cl *Cluster) StripeSize() int64 { return cl.pl.stripe }

// ShardedNamespace reports whether namespace mutations route to owner
// groups (EnableShardedNamespace) instead of fanning to every server.
func (cl *Cluster) ShardedNamespace() bool { return cl.sharded }
