package rfsrv

import "fixture/fabric"

// inbox mirrors the server's receive inbox: a receiver takes the bounce
// under its header segment from the pool once and keeps it for good —
// no request takes it along any more.
type inbox struct{ hdr *fabric.Buffer }

// refill stores the bounce in the receiver's inbox: a hand-off to the
// inbox, which nothing releases.
func (s *Server) refill(pool *fabric.Pool, in *inbox) {
	if in.hdr != nil {
		return
	}
	buf, err := pool.Get(32)
	if err != nil {
		panic(err)
	}
	in.hdr = buf
}

// recvPerMessage takes a bounce for every receive and drops it with a
// malformed message instead of posting it again.
func (s *Server) recvPerMessage(pool *fabric.Pool, malformed bool) *fabric.Buffer {
	buf, err := pool.Get(32) // want "fabric.Pool.Get is not released on every path: leaks at this return"
	if err != nil {
		return nil
	}
	if malformed {
		return nil
	}
	return buf
}
