package netpipe

// This file holds the harness's transport endpoints: one generic
// fabric End parameterized by address mode (user/kernel/physical),
// with constructors for raw GM, raw MX and the socket stacks.
import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/sockets"
	"repro/internal/vm"
)

// AddrMode selects the buffer addressing for raw GM/MX transports —
// the independent variable of Figures 4(a) and 5(b).
type AddrMode int

const (
	// UserBuf: user-virtual buffers in a user process (registered for
	// GM, pinned/copied internally by MX).
	UserBuf AddrMode = iota
	// KernelBuf: kernel-virtual buffers on a kernel port/endpoint.
	KernelBuf
	// PhysBuf: page-cache-style physically addressed frames (kernel
	// port/endpoint; scattered pages like a real page cache).
	PhysBuf
)

// String names the mode for report and figure labels.
func (m AddrMode) String() string {
	switch m {
	case UserBuf:
		return "user"
	case KernelBuf:
		return "kernel"
	default:
		return "kernel-physical"
	}
}

// pingTag is the match information all ping-pong traffic uses.
const pingTag = 1

// End is the one ping-pong endpoint: a max-size buffer built per
// AddrMode, sitting on any fabric.Transport. What used to be three
// hand-rolled endpoint types (raw GM, raw MX, sockets) is now this
// single type; the per-interconnect differences live in the fabric
// adapters where they belong.
type End struct {
	t     fabric.Transport
	peer  hw.NodeID
	pEP   uint8
	vec   core.Vector
	max   int
	eager bool // Caps.EagerSend: skip the send-completion wait
}

// NewEnd prepares one side of a ping-pong over t: it allocates a
// max-size buffer in the given addressing mode (registering it where
// the transport requires registration) and remembers the peer.
// contiguous selects physically contiguous kernel/physical buffers
// (the Fig 6 precondition); stream transports always use a user
// buffer, as socket applications do. p is the process charged for
// setup-time registration; it is required whenever t.Caps().NeedsReg
// and the mode uses virtual buffers, and may be nil otherwise.
func NewEnd(p *sim.Proc, t fabric.Transport, mode AddrMode, contiguous bool, peer hw.NodeID, peerEP uint8, maxSize int) (*End, error) {
	caps := t.Caps()
	if caps.NeedsReg && mode != PhysBuf && p == nil {
		return nil, fmt.Errorf("netpipe: registering transport needs a process for setup registration")
	}
	e := &End{t: t, peer: peer, pEP: peerEP, max: maxSize, eager: caps.EagerSend}
	node := t.Node()
	if caps.Stream {
		mode = UserBuf
	}
	switch mode {
	case UserBuf:
		as := node.NewUserSpace("netpipe")
		va, err := as.Mmap(maxSize, "buf")
		if err != nil {
			return nil, err
		}
		if caps.NeedsReg {
			if err := t.Register(p, as, va, maxSize); err != nil {
				return nil, err
			}
		}
		e.vec = core.Of(core.UserSeg(as, va, maxSize))
	case KernelBuf:
		kern := node.Kernel
		var va vm.VirtAddr
		var err error
		if contiguous {
			va, err = kern.MmapContig(maxSize, "buf")
		} else {
			va, err = kern.Mmap(maxSize, "buf")
		}
		if err != nil {
			return nil, err
		}
		if caps.NeedsReg {
			if err := t.Register(p, kern, va, maxSize); err != nil {
				return nil, err
			}
		}
		e.vec = core.Of(core.KernelSeg(kern, va, maxSize))
	case PhysBuf:
		if contiguous {
			frames, err := node.Mem.AllocContig((maxSize + mem.PageSize - 1) / mem.PageSize)
			if err != nil {
				return nil, err
			}
			e.vec = core.Of(core.PhysSeg(frames[0].Addr(), maxSize))
		} else {
			pages := (maxSize + mem.PageSize - 1) / mem.PageSize
			for i := 0; i < pages; i++ {
				f, err := node.Mem.AllocFrame()
				if err != nil {
					return nil, err
				}
				e.vec = append(e.vec, core.PhysSeg(f.Addr(), mem.PageSize))
			}
		}
	}
	return e, nil
}

// Ping implements Transport (the measurement-harness interface).
func (e *End) Ping(p *sim.Proc, n int) error {
	if n > e.max {
		return fmt.Errorf("netpipe: size %d over buffer %d", n, e.max)
	}
	op, err := e.t.Send(p, e.peer, e.pEP, pingTag, e.vec.Slice(0, n))
	if err != nil {
		return err
	}
	if e.eager {
		return nil
	}
	st := op.Wait(p)
	return st.Err
}

// Pong implements Transport.
func (e *End) Pong(p *sim.Proc, n int) (int, error) {
	op, err := e.t.PostRecv(p, core.Exact(pingTag), e.vec.Slice(0, n))
	if err != nil {
		return 0, err
	}
	st := op.Wait(p)
	return st.Len, st.Err
}

// NewGMEnd prepares one side of a raw GM ping-pong: it opens the port
// (polling the unique event queue, as the paper's raw figures do) and
// builds a fabric endpoint in the given mode.
func NewGMEnd(p *sim.Proc, g *gm.GM, portID uint8, mode AddrMode, peer hw.NodeID, peerPort uint8, maxSize int) (*End, error) {
	t, err := fabric.NewGM(g, portID, mode != UserBuf, fabric.WithPolling())
	if err != nil {
		return nil, err
	}
	return NewEnd(p, t, mode, false, peer, peerPort, maxSize)
}

// NewMXEnd prepares one side of a raw MX ping-pong. opts configure the
// endpoint (e.g. the Fig 6 copy-removal modes).
func NewMXEnd(m *mx.MX, epID uint8, mode AddrMode, peer hw.NodeID, peerEP uint8, maxSize int, contiguous bool, opts ...mx.Option) (*End, error) {
	t, err := fabric.NewMX(m, epID, mode != UserBuf, opts...)
	if err != nil {
		return nil, err
	}
	return NewEnd(nil, t, mode, contiguous, peer, peerEP, maxSize)
}

// NewSockEnd wraps an established socket connection (any family) with
// a max-size user buffer on node.
func NewSockEnd(node *hw.Node, conn sockets.Conn, maxSize int) (*End, error) {
	return NewEnd(nil, fabric.NewStream(node, 0, conn), UserBuf, false, 0, 0, maxSize)
}

var _ Transport = (*End)(nil)
