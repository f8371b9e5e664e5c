package rfsrv

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
