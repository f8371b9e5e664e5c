package rfsrv

// This file defines the client surface shared by the only two protocol
// clients — *Session (one server) and *Cluster (data striped across
// several servers). The in-kernel applications (ORFS, ORFA) and the
// figures harness program against Async and work unchanged over
// either; whether they overlap requests follows from Window() alone —
// window 1 is the paper's synchronous protocol.

import (
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// PendingOp is one in-flight read or write: the common face of a
// Session's *Pending and a Cluster's striped pending (which fans a
// single logical operation out over several per-server requests).
type PendingOp interface {
	// Wait retires the operation and returns its merged response.
	// Waiting twice returns the memoized result; pendings of one
	// client may be waited in any order.
	Wait(p *sim.Proc) (*Resp, error)
	// Issued returns the virtual time the operation entered its window
	// (latency accounting).
	Issued() sim.Time
}

// Async is a pipelined protocol client: the synchronous Client surface
// plus issue-without-waiting operations flowing through a sliding
// window. Implemented by *Session and *Cluster.
//
// Deadlock discipline: StartRead/StartWrite block while every window
// slot they need is occupied, and slots are only recycled by Wait. A
// caller holding unretired pendings must therefore check CanStart (and
// retire its oldest pending when it reports false) before issuing, or
// it can block with nobody left to drain the window.
type Async interface {
	Client

	// StartRead issues a read of dst.TotalLen() bytes at off without
	// waiting for completion.
	StartRead(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (PendingOp, error)
	// StartWrite issues one write request (src at most MaxWriteChunk)
	// without waiting for completion.
	StartWrite(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (PendingOp, error)
	// MetaBatch issues several metadata requests combined into as few
	// fabric sends as the window allows, each answered by one reply
	// message (§3.3-style request combining).
	MetaBatch(p *sim.Proc, reqs []*Req) ([]*Resp, error)

	// Window returns the total number of requests that may be
	// outstanding at once (summed over servers on a cluster).
	Window() int
	// InFlight returns the number of requests currently outstanding
	// (summed over servers on a cluster).
	InFlight() int
	// CanStart reports whether a read or write on ino covering
	// [off, off+n) could be issued right now without blocking on a full
	// window. On a cluster this consults exactly the servers owning
	// that byte range — which depends on the inode since layouts became
	// per-file (a whole-on-home file needs one slot on its home where a
	// striped one spreads) — so callers pace per-server pipelines
	// without knowing the layout. It never touches the wire: an inode
	// whose layout is not yet cached is paced as standard.
	CanStart(ino kernel.InodeID, off int64, n int) bool
	// Node returns the client node (consumers allocate frames and
	// charge copies against it).
	Node() *hw.Node
	// SetFileSize publishes an end-of-file the caller tracked itself:
	// StartWrite extends only the servers its bytes land on, so an
	// asynchronous writer calls this at its sync barrier (see
	// Cluster.SetFileSize). A negative size is ErrInval.
	SetFileSize(p *sim.Proc, ino kernel.InodeID, size int64) error
}

// Compile-time checks: the two clients.
var (
	_ Async = (*Session)(nil)
	_ Async = (*Cluster)(nil)
)
