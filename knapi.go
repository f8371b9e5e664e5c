// Package knapi is the public facade of this repository: a Go
// reproduction of "An Efficient Network API for in-Kernel Applications
// in Clusters" (Goglin, Glück, Vicat-Blanc Primet — IEEE Cluster 2005,
// INRIA RR-5561).
//
// The library simulates, deterministically and with real data
// movement, the paper's whole experimental platform: Myrinet
// PCI-XD/PCI-XE networks, the GM and MX programming interfaces
// (including the paper's kernel-interface contributions), the Linux
// kernel pieces in-kernel applications live in (virtual memory with
// VMA SPY, page cache, VFS), the GMKRC registration cache, the
// ORFA/ORFS remote file system, the SOCKETS-GM/SOCKETS-MX zero-copy
// socket layers, and a network block device.
//
// # Quick start
//
//	s := knapi.NewSim(knapi.PCIXD)
//	a, b := s.AddNode("a"), s.AddNode("b")
//	mxA, mxB := knapi.AttachMX(a), knapi.AttachMX(b)
//	... open endpoints, exchange messages (see examples/quickstart) ...
//	s.Run()
//
// Everything happens in virtual time on a discrete-event engine; see
// DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of every figure and table of the paper.
package knapi

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/figures"
	"repro/internal/gm"
	"repro/internal/gmkrc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/nbd"
	"repro/internal/netpipe"
	"repro/internal/orfa"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/sockets"
	"repro/internal/vm"
)

// Link models (Myrinet card generations).
const (
	// PCIXD is the 250 MB/s card of the paper's §3–§5.2 testbed.
	PCIXD = hw.PCIXD
	// PCIXE is the 500 MB/s two-link card of §5.3.
	PCIXE = hw.PCIXE
)

// Re-exported core types. The simulation engine, hardware and protocol
// models live in internal packages; these aliases are the supported
// surface.
type (
	// Sim-level types.
	Engine = sim.Engine
	Proc   = sim.Proc
	Time   = sim.Time

	// Hardware.
	Node      = hw.Node
	NodeID    = hw.NodeID
	Params    = hw.Params
	LinkModel = hw.LinkModel

	// Memory and address spaces.
	Memory       = mem.Memory
	Frame        = mem.Frame
	PhysAddr     = mem.PhysAddr
	Extent       = mem.Extent
	AddressSpace = vm.AddressSpace
	VirtAddr     = vm.VirtAddr

	// The paper's API abstractions.
	AddrType = core.AddrType
	Segment  = core.Segment
	Vector   = core.Vector
	Match    = core.Match

	// Drivers.
	GM         = gm.GM
	GMPort     = gm.Port
	GMEvent    = gm.Event
	MX         = mx.MX
	MXEndpoint = mx.Endpoint
	MXRequest  = mx.Request
	MXStatus   = mx.Status
	MXOption   = mx.Option
	RegCache   = gmkrc.Cache

	// OS substrate.
	OS         = kernel.OS
	File       = kernel.File
	FileSystem = kernel.FileSystem
	Attr       = kernel.Attr
	DirEntry   = kernel.DirEntry
	OpenFlag   = kernel.OpenFlag
	MemFS      = memfs.FS

	// Remote file access.
	FileServer = rfsrv.Server
	// FSClient is the synchronous protocol (Meta, Read, Write, Rename);
	// FSAsync adds the windowed verbs and is what ORFS and ORFA take.
	// FSSession (one server) and FSCluster (several) implement both.
	FSClient = rfsrv.Client
	FSAsync  = rfsrv.Async
	// FSFabricClient is the protocol's transport endpoint, built by
	// NewMXClient or NewGMClient over either transport. It is not a
	// client: wrap it in NewFSSession.
	FSFabricClient = rfsrv.FabricClient
	ORFS           = orfs.FS
	ORFA           = orfa.Lib

	// Sessions: a sliding window of in-flight requests over one
	// endpoint (window 1 is the paper's synchronous protocol).
	FSSession       = rfsrv.Session
	FSPending       = rfsrv.Pending
	FSPendingOp     = rfsrv.PendingOp
	ServerSession   = rfsrv.ClientSession
	NBDPendingBlock = nbd.PendingBlock

	// Striped cluster: file data sharded round-robin across several
	// servers, one session per server (Cluster satisfies FSClient and
	// FSAsync; one server degenerates to the plain session). File
	// sizes are kept coherent across client nodes by the size-epoch
	// protocol (DESIGN.md §9): the home server is the size authority,
	// clients hold validated (size, epoch) caches, and OpSetSize —
	// exported on the cluster as Meta truncates and SetFileSize —
	// reconciles every server's local size.
	FSCluster = rfsrv.Cluster

	// Per-file layout classes (DESIGN.md §10): how a cluster places a
	// file's bytes. The class is chosen per create — the hint in the
	// create request's Len — and fixed for the file's life; on a
	// one-server cluster both classes place the same.
	FSLayoutClass = rfsrv.LayoutClass

	// Rename (DESIGN.md §11): on a sharded cluster a cross-owner rename
	// is the multi-phase protocol whose interrupted runs surface as
	// *FSRenameInDoubtError.
	FSRenameInDoubtError = rfsrv.RenameInDoubtError

	// Elastic membership (DESIGN.md §13): the epoch-stamped view that
	// fences clusters during a live Join/Retire/Bounce and a
	// Reinstate. Every cluster owns one; Cluster.ShareView returns it,
	// and AttachView subscribes other clusters to it, which adopt the
	// new members slice at their next operation.
	FSMemberView = rfsrv.MemberView

	// Sockets.
	Conn     = sockets.Conn
	Listener = sockets.Listener
	Stack    = sockets.Stack
	SockPort = sockets.Port

	// Block device.
	NBDServer = nbd.Server
	NBDClient = nbd.Client
	NBDDevice = nbd.Device

	// The unified fabric (see DESIGN.md §3): one transport interface
	// over GM, MX and the socket stacks, plus the shared
	// registered-buffer pool.
	Fabric       = fabric.Transport
	FabricCaps   = fabric.Caps
	FabricOp     = fabric.Op
	FabricStatus = fabric.Status
	BufferPool   = fabric.Pool
	PoolBuffer   = fabric.Buffer

	// Measurement.
	Transport = netpipe.Transport
	Point     = netpipe.Point
	Series    = netpipe.Series
	Runner    = netpipe.Runner
	Figure    = figures.Figure
	TableData = figures.Table
	Config    = figures.Config
)

// Address types for Vector segments (§4.2's three kinds).
const (
	UserVirtual   = core.UserVirtual
	KernelVirtual = core.KernelVirtual
	Physical      = core.Physical
)

// File open flags.
const (
	ORDWR   = kernel.ORDWR
	OCreate = kernel.OCreate
	OTrunc  = kernel.OTrunc
	ODirect = kernel.ODirect
)

// PageSize is the simulated hosts' page size (4 KB).
const PageSize = mem.PageSize

// Segment and match constructors.
var (
	UserSeg   = core.UserSeg
	KernelSeg = core.KernelSeg
	PhysSeg   = core.PhysSeg
	Of        = core.Of
	Exact     = core.Exact
	MatchAll  = core.MatchAll
)

// MX endpoint options (the Fig 6 copy-removal modes).
var (
	WithNoSendCopy = mx.WithNoSendCopy
	WithNoRecvCopy = mx.WithNoRecvCopy
)

// Sim is a simulated cluster: an engine, a parameter set and a fabric.
type Sim struct {
	Env     *sim.Engine
	Cluster *hw.Cluster
}

// NewSim creates a cluster simulation with the calibrated default
// parameters and the given link model.
func NewSim(model LinkModel) *Sim {
	env := sim.NewEngine()
	return &Sim{Env: env, Cluster: hw.NewCluster(env, hw.DefaultParams(), model)}
}

// NewSimWithParams creates a cluster with custom parameters.
func NewSimWithParams(model LinkModel, p *Params) *Sim {
	env := sim.NewEngine()
	return &Sim{Env: env, Cluster: hw.NewCluster(env, p, model)}
}

// AddNode adds a host to the cluster.
func (s *Sim) AddNode(name string) *Node { return s.Cluster.AddNode(name) }

// Spawn starts a simulated process.
func (s *Sim) Spawn(name string, body func(p *Proc)) *Proc { return s.Env.Spawn(name, body) }

// Run executes the simulation until no events remain and returns the
// final virtual time.
func (s *Sim) Run() Time { return s.Env.Run(0) }

// RunFor executes the simulation up to the virtual-time limit.
func (s *Sim) RunFor(limit Time) Time { return s.Env.Run(limit) }

// Driver attachment.
var (
	// AttachGM installs the GM driver on a node.
	AttachGM = gm.Attach
	// AttachMX installs the MX driver on a node.
	AttachMX = mx.Attach
)

// Fabric constructors: the five transport adapters and the per-node
// buffer pool.
var (
	// NewFabricGM wraps a raw GM port as a fabric transport.
	NewFabricGM = fabric.NewGM
	// NewFabricMX wraps a raw MX endpoint as a fabric transport.
	NewFabricMX = fabric.NewMX
	// FabricPoolOf returns a node's shared registered-buffer pool.
	FabricPoolOf = fabric.PoolOf
	// WithGMPolling makes GM completion waits spin (raw benchmarks).
	WithGMPolling = fabric.WithPolling
	// WithGMCachePages sizes the GM registration cache (0 disables).
	WithGMCachePages = fabric.WithCachePages
)

// NewOS creates the operating-system model for a node (VFS + page
// cache; pageCachePages 0 = unbounded).
func NewOS(node *Node, pageCachePages int) *OS { return kernel.NewOS(node, pageCachePages) }

// NewMemFS creates a local in-memory filesystem (server backing store).
func NewMemFS(name string, node *Node, pageCost Time) *MemFS { return memfs.New(name, node, pageCost) }

// NewFileServer creates an ORFA/ORFS file server over a backing store.
func NewFileServer(node *Node, fs rfsrv.BackingFS) *FileServer { return rfsrv.NewServer(node, fs) }

// NewORFS creates the in-kernel remote filesystem client over a
// session or cluster (mount it with OS.Mount).
func NewORFS(name string, cl FSAsync) *ORFS { return orfs.New(name, cl) }

// NewORFA creates the user-space remote file-access library.
func NewORFA(cl FSAsync, as *AddressSpace) *ORFA { return orfa.New(cl, as) }

// NewMXClient opens the MX endpoint under an ORFS (kernel) or ORFA
// (user) session.
var NewMXClient = rfsrv.NewMXClient

// NewGMClient opens the GM endpoint (with its GMKRC registration
// cache) under an ORFS or ORFA session.
var NewGMClient = rfsrv.NewGMClient

// NewFSSession is the protocol client over one endpoint. Window 1 is
// the paper's synchronous prototype; a wider window adds readahead,
// write-behind and combined metadata requests for ORFS/ORFA.
var NewFSSession = rfsrv.NewSession

// NewFSCluster stripes file data across several servers, one session
// per server (stripe 0 selects the 64 KB default).
var NewFSCluster = rfsrv.NewCluster

// NewFSReplicatedCluster is NewFSCluster with a replication factor:
// every stripe is written to R consecutive servers, each of them
// serves a fixed read slice of it, a slice fails over to the next
// replica when its server faults, and faulting servers are
// excluded rather than reported as namespace divergence. Reinstate
// re-admits a recovered server by replaying the resync journal of what
// it missed while excluded (DESIGN.md §13).
var NewFSReplicatedCluster = rfsrv.NewReplicatedCluster

// ErrFSStaleEpoch is the size-coherence refusal (wire status StStale):
// an OpSetSize carried an observed size epoch behind the server's.
// Cluster clients revalidate and retry internally, so it surfaces only
// when a MetaBatch carrying size mutations races a foreign client's
// (the caller re-issues the batch — the cache is already revalidated)
// or when a truncate/write exhausts its bounded revalidation retries
// against a pathological storm of foreign size sets.
var ErrFSStaleEpoch = rfsrv.ErrStaleEpoch

// ErrFSRenameInDoubt reports a sharded cross-owner rename interrupted
// after its outcome could no longer be rolled back unilaterally: the
// namespace is in one of exactly two legal states (the rename either
// fully happened or not at all — never both entries, never neither),
// and re-driving the same rename resolves which. errors.As to
// *FSRenameInDoubtError recovers the rename's coordinates.
var ErrFSRenameInDoubt = rfsrv.ErrRenameInDoubt

// ErrFSStaleMembership fails an operation on a cluster whose
// membership view fell behind: a reply carried a higher member epoch
// than the cluster adopted, because a change ran on an FSMemberView
// the cluster does not follow. The caller must rebuild the cluster
// and attach it to the current view (AttachView) (DESIGN.md §13).
var ErrFSStaleMembership = rfsrv.ErrStaleMembership

// Layout classes a cluster file can carry (DESIGN.md §10): standard
// round-robin striping (the default, bit-identical to the pre-layout
// protocol) and whole-on-home for small files (all bytes on the
// inode's home: no fan-out, no size-reconciliation RPCs).
const (
	FSLayoutStandard = rfsrv.LayoutStandard
	FSLayoutWhole    = rfsrv.LayoutWhole
)

// FSDefaultStripeSize is the default stripe width.
const FSDefaultStripeSize = rfsrv.DefaultStripeSize

// ErrFSBadStripe rejects a stripe width that is not a positive
// page-aligned multiple no larger than the write chunk; ValidateFSStripe
// is the check the cluster constructors apply.
var (
	ErrFSBadStripe   = rfsrv.ErrBadStripe
	ValidateFSStripe = rfsrv.ValidateStripe
)

// NewRegCache creates a standalone GMKRC registration cache over a GM
// port (maxPages 0 disables caching).
func NewRegCache(port *GMPort, maxPages int) *RegCache { return gmkrc.New(port, maxPages) }

// Socket stacks.
var (
	// NewSocketsMX creates a SOCKETS-MX stack on a node.
	NewSocketsMX = sockets.NewMXStack
	// NewSocketsGM creates a SOCKETS-GM stack on a node.
	NewSocketsGM = sockets.NewGMStack
	// NewSocketsTCP creates the TCP/GigE baseline stack.
	NewSocketsTCP = sockets.NewTCPStack
)

// Block device.
var (
	// NewNBDServer exports a disk of numBlocks blocks.
	NewNBDServer = nbd.NewServer
	// NewNBDClient connects to an NBD server.
	NewNBDClient = nbd.NewClient
	// NewNBDDevice adapts a client for mounting through the VFS.
	NewNBDDevice = nbd.NewDevice
	// NewStripedNBDDevice adapts one client per server into a
	// block-striped device.
	NewStripedNBDDevice = nbd.NewStripedDevice
)

// DefaultParams returns the calibrated parameter set (see DESIGN.md §5).
func DefaultParams() *Params { return hw.DefaultParams() }

// DefaultConfig returns the experiment configuration used by
// EXPERIMENTS.md.
func DefaultConfig() Config { return figures.DefaultConfig() }

// NetpipeSizes returns the classic doubling size ladder up to max.
var NetpipeSizes = netpipe.Sizes
