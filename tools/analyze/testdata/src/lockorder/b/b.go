// Package b declares lock orders over entities that do not exist — the
// state a rename leaves behind. Such a directive would check nothing,
// so each is itself a finding.
package b

import "fixture/sim"

type Client struct {
	lock *sim.Resource
}

type Session struct {
	win *sim.Window
}

type Slots int

//analyze:lockorder Session.free < Client.lock // want "has no struct field Session.free"
//analyze:lockorder Ghost.win < Client.lock // want "has no struct field Ghost.win"
//analyze:lockorder Slots.win < Client.lock // want "has no struct field Slots.win"

// The surviving directive still checks, on the slot-pool form of
// acquisition (Acquire/Release on a window field).
//
//analyze:lockorder Session.win < Client.lock // renamed from Session.free

func badOrder(p *sim.Proc, s *Session, c *Client) {
	c.lock.Acquire(p)
	slot := s.win.Acquire(p) // want "acquiring Session.win while holding Client.lock"
	s.win.Release(slot)
	c.lock.Release()
}
