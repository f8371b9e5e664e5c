package rfsrv

// RepliesInFlight reports how many reply headers are still staged under
// a send that has not completed (tests: zero once the engine drained).
func (s *Server) RepliesInFlight() int {
	n := 0
	for _, sr := range s.staged {
		if !sr.op.Done() {
			n++
		}
	}
	return n
}
