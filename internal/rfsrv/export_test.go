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

// MemberEpoch returns the membership epoch this server last committed
// (OpMember) — the one its replies stamp.
func (s *Server) MemberEpoch() uint64 { return s.member }

// StagedImage reports whether the server holds a namespace image an
// OpImport staged for a membership cutover.
func (s *Server) StagedImage() bool { return s.stage != nil }

// ReplyHeaderBytes is the size of a data reply's header message: every
// answer but a readdir's is this long.
const ReplyHeaderBytes = respFixed

// Read-only views of a cluster's configuration, for the tests that
// rebuild or audit one.

// LayoutOf reports the layout class this client has learned for the
// inode: LayoutStandard until a reply taught it one.
func (cl *Cluster) LayoutOf(ino kernel.InodeID) LayoutClass { return cl.layouts[ino] }

// CtlBusy lists the servers whose control path (the endpoint's ctl
// slot, FabricClient.startCtl) is still held — empty whenever no
// cluster operation is running.
func (cl *Cluster) CtlBusy() []int {
	var out []int
	for i, s := range cl.sessions {
		if s.c.lock.InUse() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Replicas returns the replication factor R.
func (cl *Cluster) Replicas() int { return cl.pl.replicas }

// StripeSize returns the standard-layout stripe width in bytes.
func (cl *Cluster) StripeSize() int64 { return cl.pl.stripe }

// ShardedNamespace reports whether namespace mutations route to owner
// groups (EnableShardedNamespace) instead of fanning to every server.
func (cl *Cluster) ShardedNamespace() bool { return cl.pl.sharded }

// JournalOps returns how many namespace mutations server slot i's
// resync journal currently holds (0 when the server is up or nothing
// was missed).
func (cl *Cluster) JournalOps(i int) int { return len(cl.jn.slot(i).ops) }

// JournalBytes returns how many dirty data bytes server slot i's
// resync journal currently holds (0 when the server is up or nothing
// was missed).
func (cl *Cluster) JournalBytes(i int) int64 {
	var n int64
	for _, rs := range cl.jn.slot(i).dirty.ranges {
		for _, r := range rs {
			n += int64(r.n)
		}
	}
	return n
}

// JournaledReqs returns the requests server slot i's resync journal
// holds, in order — what Reinstate will replay there.
func (cl *Cluster) JournaledReqs(i int) []Req {
	var out []Req
	for _, op := range cl.jn.slot(i).ops {
		out = append(out, op.req)
	}
	return out
}
