// Package rfsrv (a second fixture of the same name) holds a taker that
// forgets to land the payload it is handed on one of its paths.
package rfsrv

type work struct {
	op   int
	pay  *int
	left int
}

type Server struct{ free []*work }

func (s *Server) landPayload(w *work) { w.pay = nil }

func (s *Server) putWork(w *work) { s.free = append(s.free, w) }

func (s *Server) reply(w *work) {}

// serve lands the payload only for writes: a read whose record still
// holds a posted receive recycles it.
func (s *Server) serve(w *work) { // want "Server.postPayload is not released on every path: leaks when the function ends"
	switch w.op {
	case 1:
		s.landPayload(w)
		s.reply(w)
	default:
		s.reply(w)
	}
	s.putWork(w)
}
