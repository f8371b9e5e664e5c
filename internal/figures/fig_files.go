package figures

// This file holds the file-access figures: a shared ORFA/ORFS
// workload harness (fileAccessOnce) parameterized over transport,
// user/kernel space and direct/buffered mode, feeding Fig 3(b),
// Fig 4(b) and Fig 7(a)/7(b).
import (
	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/netpipe"
	"repro/internal/orfa"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

// fileBytes is the maximum sequential working set a file-throughput
// point reads; small request sizes read a proportionally smaller
// prefix (the simulation is deterministic, so a few hundred requests
// measure the steady state exactly).
const fileBytes = 2 << 20

// workingSet returns how many bytes to read for a request size.
func workingSet(reqSize int) int {
	t := reqSize * 128
	if t < 16*1024 {
		t = 16 * 1024
	}
	if t > fileBytes {
		t = fileBytes
	}
	return t
}

// fsTransport names the client transport variants of the file figures.
type fsTransport int

const (
	fsGM        fsTransport = iota
	fsGMNoCache             // registration per transfer (rotating buffers)
	fsMX
)

// fileAccess measures application-level sequential read throughput
// (MB/s) for each request size: the workload of Figures 3(b), 4(b)
// and 7 ("the throughput at the application level when accessing large
// files sequentially", §3.3).
//
// userSpace=true measures ORFA (user-space library); otherwise ORFS
// through the VFS, with direct selecting O_DIRECT vs buffered access.
func (c Config) fileAccess(tr fsTransport, userSpace, direct bool, sizes []int) ([]netpipe.Point, error) {
	return c.fileAccessOpt(faOpts{tr: tr, userSpace: userSpace, direct: direct, combine: 1}, sizes)
}

// faOpts parameterizes the file workload, including the ablation knobs:
// combine > 1 enables the request-combining extension (the Linux 2.6
// behaviour the paper predicts), noPhys runs the GM client without the
// paper's physical-address primitives (stock GM).
type faOpts struct {
	tr                fsTransport
	userSpace, direct bool
	combine           int
	noPhys            bool
}

func (c Config) fileAccessOpt(o faOpts, sizes []int) ([]netpipe.Point, error) {
	tr := o.tr
	var pts []netpipe.Point
	var failure error
	for _, n := range sizes {
		// A fresh cluster per point: cold page cache, cold dentry
		// cache, deterministic state.
		env := sim.NewEngine()
		cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
		client, server := cl.AddNode("client"), cl.AddNode("server")
		serverFS := memfs.New("backing", server, 0)
		srv := rfsrv.NewServer(server, serverFS)
		switch tr {
		case fsMX:
			if _, err := srv.ServeMX(mx.Attach(server), 1, 1); err != nil {
				return nil, err
			}
		default:
			if _, err := srv.ServeGM(gm.Attach(server), 1); err != nil {
				return nil, err
			}
		}
		n := n
		env.Spawn("bench", func(p *sim.Proc) {
			mbps, err := c.fileAccessOnce(p, o, client, server, serverFS, n)
			if err != nil {
				failure = err
				return
			}
			pts = append(pts, netpipe.Point{
				Size: n,
				MBps: mbps,
			})
		})
		env.Run(0)
		if failure != nil {
			return nil, failure
		}
	}
	return pts, nil
}

func (c Config) fileAccessOnce(p *sim.Proc, o faOpts, client, server *hw.Node, serverFS *memfs.FS, reqSize int) (float64, error) {
	tr, userSpace, direct := o.tr, o.userSpace, o.direct
	// Seed the file server-side.
	attr, err := serverFS.Create(p, serverFS.Root(), "data")
	if err != nil {
		return 0, err
	}
	seedVA, err := server.Kernel.Mmap(fileBytes, "seed")
	if err != nil {
		return 0, err
	}
	seed := make([]byte, fileBytes)
	for i := range seed {
		seed[i] = byte(i * 131)
	}
	server.Kernel.WriteBytes(seedVA, seed)
	if _, err := serverFS.WriteDirect(p, attr.Ino, 0, vecKernel(server.Kernel, seedVA, fileBytes)); err != nil {
		return 0, err
	}

	// Client transport: the synchronous protocol, a session at window 1.
	kernSide := !userSpace
	bufAS := client.Kernel
	if userSpace {
		bufAS = client.NewUserSpace("orfa")
	}
	var fc *rfsrv.FabricClient
	switch tr {
	case fsMX:
		fc, err = rfsrv.NewMXClient(mx.Attach(client), 2, kernSide, bufAS, server.ID, 1)
	case fsGM, fsGMNoCache:
		fc, err = rfsrv.NewGMClient(p, gm.Attach(client), 2, kernSide, bufAS, server.ID, 1, 8192)
		if err == nil && o.noPhys {
			err = fc.DisablePhysicalAPI(p)
		}
	}
	if err != nil {
		return 0, err
	}
	clTr, err := rfsrv.NewSession(p, fc, 1)
	if err != nil {
		return 0, err
	}

	// Application buffers: one reused buffer for the cached cases; a
	// rotating ring for the "without registration cache" case, so that
	// every transfer misses and pays the per-page registration.
	as := client.NewUserSpace("app")
	ringSize := 1
	if tr == fsGMNoCache {
		ringSize = 64
	}
	bufs := make([]vm.VirtAddr, ringSize)
	for i := range bufs {
		if bufs[i], err = as.Mmap(maxInt(reqSize, 4096), "buf"); err != nil {
			return 0, err
		}
	}

	reads := workingSet(reqSize) / reqSize
	if reads == 0 {
		reads = 1
	}
	if userSpace {
		lib := orfa.New(clTr, as)
		fd, err := lib.Open(p, "/data")
		if err != nil {
			return 0, err
		}
		t0 := p.Now()
		total := 0
		for i := 0; i < reads; i++ {
			got, err := lib.Read(p, fd, bufs[i%ringSize], reqSize)
			if err != nil {
				return 0, err
			}
			if got == 0 {
				break
			}
			total += got
		}
		return mbps(total, p.Now()-t0), nil
	}

	osys := kernel.NewOS(client, 0)
	osys.SetReadChunkPages(o.combine)
	osys.Mount("/mnt", orfs.New("orfs", clTr))
	flags := kernel.OpenFlag(0)
	if direct {
		flags = kernel.ODirect
	}
	f, err := osys.Open(p, "/mnt/data", flags)
	if err != nil {
		return 0, err
	}
	t0 := p.Now()
	total := 0
	for i := 0; i < reads; i++ {
		got, err := f.Read(p, as, bufs[i%ringSize], reqSize)
		if err != nil {
			return 0, err
		}
		if got == 0 {
			break
		}
		total += got
	}
	return mbps(total, p.Now()-t0), nil
}

func mbps(bytes int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func vecKernel(as *vm.AddressSpace, va vm.VirtAddr, n int) core.Vector {
	return core.Of(core.KernelSeg(as, va, n))
}

// Fig3b reproduces Figure 3(b): direct remote file access on GM, with
// and without the registration cache; ORFA vs ORFS; raw GM reference.
func (c Config) Fig3b() (*Figure, error) {
	sizes := netpipe.Sizes(64 * 1024)
	raw, err := c.pingpong(hw.PCIXD, sizes, gmPair(netpipe.UserBuf, 1<<17))
	if err != nil {
		return nil, err
	}
	orfaCached, err := c.fileAccess(fsGM, true, true, sizes)
	if err != nil {
		return nil, err
	}
	orfsCached, err := c.fileAccess(fsGM, false, true, sizes)
	if err != nil {
		return nil, err
	}
	orfsNoCache, err := c.fileAccess(fsGMNoCache, false, true, sizes)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig3b", Title: "Direct access in ORFS/ORFA over GM and the registration cache",
		XLabel: "message size (bytes)", YLabel: "throughput (MB/s)",
		Series: []netpipe.Series{
			{Label: "GM Raw", Points: raw},
			{Label: "ORFA with Registration Cache", Points: orfaCached},
			{Label: "ORFS with Registration Cache", Points: orfsCached},
			{Label: "ORFS without Reg. Cache", Points: orfsNoCache},
		},
		Expected: "no-cache ≈20% below cached ORFS; ORFS slightly below ORFA " +
			"(syscall+VFS overhead); both below raw GM",
	}, nil
}

// Fig4b reproduces Figure 4(b): ORFS/GM direct vs buffered access vs
// raw GM.
func (c Config) Fig4b() (*Figure, error) {
	sizes := netpipe.Sizes(1 << 20)
	raw, err := c.pingpong(hw.PCIXD, sizes, gmPair(netpipe.UserBuf, 1<<20))
	if err != nil {
		return nil, err
	}
	direct, err := c.fileAccess(fsGM, false, true, sizes)
	if err != nil {
		return nil, err
	}
	buffered, err := c.fileAccess(fsGM, false, false, sizes)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig4b", Title: "ORFS on GM: direct vs buffered access (physical-address API)",
		XLabel: "message size (bytes)", YLabel: "throughput (MB/s)",
		Series: []netpipe.Series{
			{Label: "ORFS/GM Direct Access", Points: direct},
			{Label: "ORFS/GM Buffered Access", Points: buffered},
			{Label: "GM Raw", Points: raw},
		},
		Expected: "≤4KB requests: buffered wins (page cache amortizes fetches); " +
			"large requests: direct wins (buffered capped by per-page, page-sized network requests)",
	}, nil
}

// Fig7a reproduces Figure 7(a): direct file access, GM vs MX.
func (c Config) Fig7a() (*Figure, error) {
	sizes := netpipe.Sizes(1 << 20)
	gmRaw, err := c.pingpong(hw.PCIXD, sizes, gmPair(netpipe.UserBuf, 1<<20))
	if err != nil {
		return nil, err
	}
	mxRaw, err := c.pingpong(hw.PCIXD, sizes, mxPair(netpipe.KernelBuf, 1<<20, true))
	if err != nil {
		return nil, err
	}
	gmDirect, err := c.fileAccess(fsGM, false, true, sizes)
	if err != nil {
		return nil, err
	}
	mxDirect, err := c.fileAccess(fsMX, false, true, sizes)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig7a", Title: "ORFS direct access: GM vs MX",
		XLabel: "message size (bytes)", YLabel: "throughput (MB/s)",
		Series: []netpipe.Series{
			{Label: "GM", Points: gmRaw},
			{Label: "ORFS/GM Direct", Points: gmDirect},
			{Label: "MX Kernel", Points: mxRaw},
			{Label: "ORFS/MX Direct", Points: mxDirect},
		},
		Expected: "ORFS/MX slightly above ORFS/GM (mirroring the raw difference); " +
			"GM figure benefits from 100% registration-cache hits",
	}, nil
}

// Fig7b reproduces Figure 7(b): buffered file access, GM vs MX.
func (c Config) Fig7b() (*Figure, error) {
	sizes := netpipe.Sizes(1 << 20)
	gmRaw, err := c.pingpong(hw.PCIXD, sizes, gmPair(netpipe.UserBuf, 1<<20))
	if err != nil {
		return nil, err
	}
	mxRaw, err := c.pingpong(hw.PCIXD, sizes, mxPair(netpipe.KernelBuf, 1<<20, true))
	if err != nil {
		return nil, err
	}
	gmBuf, err := c.fileAccess(fsGM, false, false, sizes)
	if err != nil {
		return nil, err
	}
	mxBuf, err := c.fileAccess(fsMX, false, false, sizes)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig7b", Title: "ORFS buffered access: GM vs MX",
		XLabel: "message size (bytes)", YLabel: "throughput (MB/s)",
		Series: []netpipe.Series{
			{Label: "GM", Points: gmRaw},
			{Label: "ORFS/GM Buffered", Points: gmBuf},
			{Label: "MX Kernel", Points: mxRaw},
			{Label: "ORFS/MX Buffered", Points: mxBuf},
		},
		Expected: "ORFS/MX buffered ≈ +40% over ORFS/GM (the improved kernel interface), " +
			"although raw MX is not faster than raw GM at page size",
	}, nil
}
