// Package hw models the hardware of the paper's experimental platform:
// dual-Xeon hosts and Myrinet NICs (PCI-XD 250 MB/s for §3–§5.2,
// PCI-XE 500 MB/s for §5.3) connected by a fabric.
//
// Every timing constant lives in Params, with its provenance in the
// paper noted. The constants were calibrated so that the *composed*
// latencies and bandwidths match the paper's reported measurements
// (GM user 6.7 µs one-way, MX 4.2 µs, +2 µs GM kernel penalty,
// 0.5 µs/side translation-lookup saving, 3 µs/page registration,
// 200 µs deregistration base, link saturation near 250/500 MB/s);
// see EXPERIMENTS.md for the resulting figure-by-figure comparison.
package hw

import (
	"time"
)

// LinkModel selects the Myrinet card generation.
type LinkModel int

const (
	// PCIXD is the 250 MB/s full-duplex card of §3.1 (LANai XP).
	PCIXD LinkModel = iota
	// PCIXE is the 500 MB/s two-link card of §5.3.
	PCIXE
)

// String names the card model.
func (m LinkModel) String() string {
	if m == PCIXE {
		return "PCI-XE"
	}
	return "PCI-XD"
}

// Params gathers every calibration constant of the simulation.
type Params struct {
	// ---- Host CPU (dual Xeon 2.6 GHz, §3.1) ----

	// CPUCores is the number of cores per node (dual-Xeon).
	CPUCores int
	// CopyBase is the fixed cost of a memory copy operation.
	CopyBase time.Duration
	// CopyBandwidth is host memcpy throughput in bytes/second. The
	// value makes Fig 1(b)'s copy curves and Fig 6's +17 % send-copy
	// removal come out right for the 2.6 GHz Xeon.
	CopyBandwidth float64
	// CopyBandwidthP3 and CopyBandwidthP4 are the two host models shown
	// in Fig 1(b) ("Copy (P3 1.2 GHz)" and "Copy (P4 2.6 GHz)").
	CopyBandwidthP3 float64
	CopyBandwidthP4 float64
	// PIOBase/PIOPerByte: programmed I/O from host to NIC doorbell
	// region (used by MX for small messages).
	PIOBase    time.Duration
	PIOPerByte time.Duration
	// Syscall is the user/kernel crossing cost ("about 400 ns", §5.3).
	Syscall time.Duration
	// ContextSwitch is a thread wakeup+dispatch (Sockets-GM's extra
	// dispatching kernel thread, §5.3).
	ContextSwitch time.Duration
	// PageAlloc is allocating one page-cache page.
	PageAlloc time.Duration
	// VFSOp is the cost of traversing the VFS layer for one call
	// (§3.2: ORFS slower than ORFA because of syscalls + VFS).
	VFSOp time.Duration
	// PinBase/PinUserPerPage/PinKernelPerPage/UnpinPerPage: pinning
	// pages in physical memory. Kernel pages are cheaper ("the page
	// locking overhead is lower", §5.1) because no user page-table
	// walk is needed.
	PinBase          time.Duration
	PinUserPerPage   time.Duration
	PinKernelPerPage time.Duration
	UnpinPerPage     time.Duration

	// ---- Memory registration (GM model, §2.2.2) ----

	// RegBase/RegPerPage: "3 µs overhead per page registration".
	RegBase    time.Duration
	RegPerPage time.Duration
	// DeregBase/DeregPerPage: "a 200 µs base for deregistration".
	DeregBase    time.Duration
	DeregPerPage time.Duration

	// ---- NIC (shared by GM and MX; LANai processor + DMA engines) ----

	// DMASetup is per-transfer DMA engine programming.
	DMASetup time.Duration
	// PCIBandwidthXD/XE is host<->NIC DMA throughput (PCI-X bus).
	PCIBandwidthXD float64
	PCIBandwidthXE float64
	// LinkBandwidthXD/XE is wire throughput: 250 MB/s (§3.1) and
	// 500 MB/s using two links (§5.3).
	LinkBandwidthXD float64
	LinkBandwidthXE float64
	// WireProp is per-fragment propagation + switch crossing.
	WireProp time.Duration
	// FragSize is the NIC's internal fragmentation granularity; DMA and
	// link stages pipeline at this grain.
	FragSize int
	// WireEnvelope is per-message header bytes on the wire (routing,
	// CRC) counted in link occupancy.
	WireEnvelope int
	// TransTableCap is the NIC translation-table capacity in page
	// entries ("the amount of page translations that may be stored in
	// the NIC is limited", §2.2.2).
	TransTableCap int

	// ---- GM driver (§2.2.2, §5.1: 6.7 µs user one-way, +2 µs kernel) ----

	GMHostSend      time.Duration // host-side send-path work, user space
	GMHostEvent     time.Duration // host-side completion handling
	GMKernelPenalty time.Duration // extra per host operation from a kernel port
	GMFwSend        time.Duration // firmware send processing per message
	GMFwRecv        time.Duration // firmware receive processing per message
	GMFwFrag        time.Duration // firmware per additional fragment
	GMLookup        time.Duration // translation-table lookup per message
	// (the 0.5 µs/side the physical-address primitives save, §3.3)
	GMSendTokens int // max outstanding sends per port (§4.1)

	// ---- MX driver (§4.2, §5.1: 4.2 µs one-way, kernel == user) ----

	MXHostSend   time.Duration
	MXHostEvent  time.Duration
	MXFwSend     time.Duration
	MXFwRecv     time.Duration
	MXFwFrag     time.Duration
	MXSmallMax   int           // <= this size: PIO ("Programmed I/O", §5.1)
	MXMediumMax  int           // <= this size: copy through bounce ("128 bytes to 32 kB")
	MXRendezvous time.Duration // RTS/CTS handshake extra, large messages
	// MXLargeOverhead models the immaturity of large-message processing
	// ("large message processing in MX is still under strong
	// development... current performance difference might disappear",
	// §5.1): a flat penalty making the >32 KB regime dip below the
	// extrapolated medium curve, as in Fig 6.
	MXLargeOverhead time.Duration

	// ---- Sockets layers (§5.3) ----

	// SockMXOverhead is the per-call protocol work of SOCKETS-MX above
	// raw MX (measured 1 µs including the ~400 ns syscall).
	SockMXOverhead time.Duration
	// SockGMOverhead is SOCKETS-GM's per-call protocol work.
	SockGMOverhead time.Duration

	// ---- TCP/IP over Gigabit Ethernet baseline ----

	TCPPerMessage time.Duration // stack traversal per packet
	TCPChecksum   float64       // bytes/s of checksum+fragmentation work
	TCPLinkBW     float64       // 125 MB/s GigE
	TCPLatency    time.Duration // base one-way wire+stack latency
}

// DefaultParams returns the calibrated parameter set described in
// DESIGN.md §5.
func DefaultParams() *Params {
	const (
		us = time.Microsecond
		ns = time.Nanosecond
	)
	return &Params{
		CPUCores:         2,
		CopyBase:         100 * ns,
		CopyBandwidth:    1.0e9,
		CopyBandwidthP3:  0.55e9,
		CopyBandwidthP4:  1.1e9,
		PIOBase:          200 * ns,
		PIOPerByte:       8 * ns,
		Syscall:          400 * ns,
		ContextSwitch:    6 * us,
		PageAlloc:        200 * ns,
		VFSOp:            500 * ns,
		PinBase:          200 * ns,
		PinUserPerPage:   300 * ns,
		PinKernelPerPage: 150 * ns,
		UnpinPerPage:     100 * ns,

		RegBase:      1 * us,
		RegPerPage:   3 * us,
		DeregBase:    200 * us,
		DeregPerPage: 100 * ns,

		DMASetup:        700 * ns,
		PCIBandwidthXD:  533e6,
		PCIBandwidthXE:  1066e6,
		LinkBandwidthXD: 250e6,
		LinkBandwidthXE: 500e6,
		WireProp:        300 * ns,
		FragSize:        4096,
		WireEnvelope:    16,
		TransTableCap:   4096,

		GMHostSend:      900 * ns,
		GMHostEvent:     100 * ns,
		GMKernelPenalty: 1000 * ns,
		GMFwSend:        1300 * ns,
		GMFwRecv:        1300 * ns,
		GMFwFrag:        300 * ns,
		GMLookup:        500 * ns,
		GMSendTokens:    16,

		MXHostSend:      500 * ns,
		MXHostEvent:     400 * ns,
		MXFwSend:        1000 * ns,
		MXFwRecv:        1000 * ns,
		MXFwFrag:        250 * ns,
		MXSmallMax:      128,
		MXMediumMax:     32 * 1024,
		MXRendezvous:    4 * us,
		MXLargeOverhead: 60 * us,

		SockMXOverhead: 600 * ns,
		SockGMOverhead: 1 * us,

		TCPPerMessage: 15 * us,
		TCPChecksum:   0.4e9,
		TCPLinkBW:     125e6,
		TCPLatency:    25 * us,
	}
}

// btime converts a byte count at a bytes/second rate into a duration.
func btime(bytes int, bw float64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bw * 1e9)
}

// CopyTime is the host cost of copying n bytes (Fig 1(b) copy curves).
func (p *Params) CopyTime(n int) time.Duration { return p.CopyBase + btime(n, p.CopyBandwidth) }

// CopyTimeAt is CopyTime with an explicit bandwidth (P3/P4 curves).
func (p *Params) CopyTimeAt(n int, bw float64) time.Duration { return p.CopyBase + btime(n, bw) }

// PIOTime is the host cost of pushing n bytes to the NIC by PIO.
func (p *Params) PIOTime(n int) time.Duration {
	return p.PIOBase + time.Duration(n)*p.PIOPerByte
}

// RegTime is the cost of registering n pages (GM model, Fig 1(b)).
func (p *Params) RegTime(pages int) time.Duration {
	return p.RegBase + time.Duration(pages)*p.RegPerPage
}

// DeregTime is the cost of deregistering n pages (Fig 1(b)).
func (p *Params) DeregTime(pages int) time.Duration {
	return p.DeregBase + time.Duration(pages)*p.DeregPerPage
}

// PinTime is the cost of pinning n pages from user or kernel context.
func (p *Params) PinTime(pages int, kernel bool) time.Duration {
	per := p.PinUserPerPage
	if kernel {
		per = p.PinKernelPerPage
	}
	return p.PinBase + time.Duration(pages)*per
}

// UnpinTime is the cost of unpinning n pages.
func (p *Params) UnpinTime(pages int) time.Duration {
	return time.Duration(pages) * p.UnpinPerPage
}

// DMATime is one DMA transfer of n bytes over the PCI bus of the model.
func (p *Params) DMATime(m LinkModel, n int) time.Duration {
	bw := p.PCIBandwidthXD
	if m == PCIXE {
		bw = p.PCIBandwidthXE
	}
	return p.DMASetup + btime(n, bw)
}

// LinkTime is wire occupancy for n bytes.
func (p *Params) LinkTime(m LinkModel, n int) time.Duration {
	bw := p.LinkBandwidthXD
	if m == PCIXE {
		bw = p.LinkBandwidthXE
	}
	return btime(n, bw)
}

// Frags returns the number of NIC fragments for n wire bytes.
func (p *Params) Frags(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + p.FragSize - 1) / p.FragSize
}
