// Package a exercises the poolpair path walk against the fabric
// stand-in.
package a

import "fixture/fabric"

type holder struct{ b *fabric.Buffer }

type queue struct{}

func (q *queue) push(b *fabric.Buffer) {}

func leakOnEarlyReturn(p *fabric.Pool) error {
	buf, err := p.Get(64) // want "fabric.Pool.Get is not released on every path: leaks at this return"
	if err != nil {
		return err // buf is nil here: not the leak
	}
	if buf.VA() == 0 {
		return nil // the leak: still owned, no release
	}
	buf.Release()
	return nil
}

func balancedDefer(p *fabric.Pool) error {
	buf, err := p.Get(64)
	if err != nil {
		return err
	}
	defer buf.Release()
	return nil
}

func balancedBothArms(p *fabric.Pool, cond bool) {
	buf, err := p.Get(64)
	if err != nil {
		return
	}
	if cond {
		buf.Release()
	} else {
		buf.Release()
	}
}

func ownershipToField(p *fabric.Pool, h *holder) error {
	buf, err := p.Get(64)
	if err != nil {
		return err
	}
	h.b = buf // the holder releases later
	return nil
}

func ownershipToCall(p *fabric.Pool, q *queue) error {
	buf, err := p.Get(64)
	if err != nil {
		return err
	}
	q.push(buf) // the queue consumer releases later
	return nil
}

func discarded(p *fabric.Pool) {
	_, _ = p.Get(64) // want "fabric.Pool.Get result is discarded"
}

func leakOnContinue(p *fabric.Pool, n int) {
	for i := 0; i < n; i++ {
		buf, err := p.Get(64) // want "leaks when the loop continues"
		if err != nil {
			return
		}
		if i == 0 {
			continue
		}
		buf.Release()
	}
}

type staged struct{ b *fabric.Buffer }

type server struct{ staged []staged }

// stagedReply mirrors rfsrv.Server.reply: a failed send releases the
// staging at once, a posted one hands it to the staging list, whose
// sweep releases it when the send completes.
func (s *server) stagedReply(p *fabric.Pool, sendFailed bool) {
	buf, err := p.Get(64)
	if err != nil {
		return
	}
	if sendFailed {
		buf.Release()
		return
	}
	s.staged = append(s.staged, staged{buf})
}

func (s *server) stagedReplyForgetsFailedSend(p *fabric.Pool, sendFailed bool) {
	buf, err := p.Get(64) // want "fabric.Pool.Get is not released on every path: leaks at this return"
	if err != nil {
		return
	}
	if sendFailed {
		return // dropped the reply, kept the buffer
	}
	s.staged = append(s.staged, staged{buf})
}
