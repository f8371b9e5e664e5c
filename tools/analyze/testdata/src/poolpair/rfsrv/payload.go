package rfsrv

// The server's payload hand-off: postPayload parks a posted receive on
// a work record, and serve — handed the record by another process —
// lands it with landPayload before anything else.

type Op interface{ Wait() int }

type work struct {
	n   int
	pay Op
}

type Server struct {
	queue []*work
	free  []*work
}

// postPayload takes the proc and transport first, as the real one does.
func (s *Server) postPayload(p, t int, w *work, ok bool) {
	if ok {
		w.pay = nil
	}
}

func (s *Server) landPayload(w *work) {
	if w.pay != nil {
		w.n = w.pay.Wait()
		w.pay = nil
	}
}

func (s *Server) putWork(w *work) { s.free = append(s.free, w) }

func (s *Server) reply(w *work) {}

// recvReq mirrors Server.recvReq: the posted record goes back to the
// caller, which hands it on.
func (s *Server) recvReq(w *work, separate bool) *work {
	if separate {
		s.postPayload(0, 0, w, true)
	}
	return w
}

// recvReqRefuses recycles a record whose payload receive is posted:
// passing it along is no hand-off for this pair, so the receive is left
// behind.
func (s *Server) recvReqRefuses(w *work, bad bool) *work {
	s.postPayload(0, 0, w, true) // want "Server.postPayload is not released on every path: leaks at this return"
	if bad {
		s.putWork(w)
		return nil
	}
	return w
}

// recvReqQueues stores the record on the queue: a hand-off.
func (s *Server) recvReqQueues(w *work) {
	s.postPayload(0, 0, w, true)
	s.queue = append(s.queue, w)
}

// serve is the taker: it owns the pending payload from entry and lands
// it before serving.
func (s *Server) serve(w *work) {
	s.landPayload(w)
	s.reply(w)
	s.putWork(w)
}
