package torture

// One torture client: its own node, its own Cluster view (exclusion
// state is per client), its own dice stream, and the per-operation
// model checks. ModeData operations must all succeed — the schedule
// keeps every owner group reachable in every client's view — so every
// read is byte-exact against the shadow and every metadata answer
// exact against the entry model. ModeNS operations may fault, and the
// handlers downgrade the model to the two-valued states the §11
// protocol actually leaves behind.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

type tClient struct {
	st   *runState
	idx  int
	node *hw.Node
	rng  *rand.Rand

	cl *rfsrv.Cluster

	wva, rva vm.VirtAddr
	bufCap   int
	scratch  []byte

	dirs    []*dirModel
	files   []*fileModel
	inDoubt []*inDoubtRename

	// downSeen mirrors which exclusions were already accounted;
	// exclMut[s] is the client's mutation count just before the
	// operation that discovered s's fault — a Reinstate refusal is only
	// legal if mutations happened past that point.
	downSeen []bool
	exclMut  map[int]int
	mutCount int

	ops, reads, writes, creates, unlinks, renames, readdirs, truncates, getattrs, seeks int
	maybeEntries, staleSkips, busyRefusals                                              int
}

// run is the client proc: setup, barrier, op storm, barrier, end
// checks.
func (c *tClient) run(p *sim.Proc) {
	st := c.st
	if !c.setup(p) {
		st.stormLive--
		st.endDone++
		return
	}
	st.ready++
	for !st.stormOn && !st.failed() {
		p.Sleep(tick)
	}
	for i := 0; i < st.cfg.Ops && !st.failed(); i++ {
		p.Sleep(time.Duration(10+c.rng.Intn(150)) * time.Microsecond)
		if i%8 == 0 {
			c.tryReinstates(p)
		}
		pre := c.mutCount
		if st.cfg.Mode == ModeData {
			c.opData(p, i)
		} else {
			c.opNS(p)
		}
		c.noteExclusions(pre)
	}
	st.stormLive--
	for !st.reviveDone && !st.failed() {
		p.Sleep(tick)
	}
	if !st.failed() {
		c.endChecks(p)
	}
	st.endDone++
}

func (c *tClient) setup(p *sim.Proc) bool {
	st, cfg := c.st, c.st.cfg
	for cfg.Elastic && st.rig.View == nil && !st.failed() {
		p.Sleep(tick) // the operator publishes the shared view first
	}
	if st.failed() {
		return false
	}
	var err error
	if c.cl, err = st.rig.Cluster(p, c.node, 10); err != nil {
		st.failf(-1, -1, "", "c%d: cluster setup: %v", c.idx, err)
		return false
	}
	// Vary the publish batch across clients: immediate publishers and
	// batched ones must agree on every size check.
	if err := c.cl.SetSizePublishBatch(1 + c.rng.Intn(4)); err != nil {
		st.failf(-1, -1, "", "c%d: publish batch: %v", c.idx, err)
		return false
	}
	c.bufCap = maxFileStripes * cfg.Stripe
	if c.wva, err = c.node.Kernel.Mmap(c.bufCap, fmt.Sprintf("torture-w%d", c.idx)); err == nil {
		c.rva, err = c.node.Kernel.Mmap(c.bufCap, fmt.Sprintf("torture-r%d", c.idx))
	}
	if err != nil {
		st.failf(-1, -1, "", "c%d: buffer mmap: %v", c.idx, err)
		return false
	}
	c.scratch = make([]byte, c.bufCap)
	c.downSeen = make([]bool, cfg.Servers)
	c.exclMut = make(map[int]int)

	for k := 0; k < dirsPerClient; k++ {
		name := fmt.Sprintf("c%dd%d", c.idx, k)
		h := st.handle()
		resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: name})
		if err != nil {
			st.failf(h, rootHandle, name, "c%d: setup mkdir %s: %v", c.idx, name, err)
			return false
		}
		d := &dirModel{handle: h, name: name, ino: resp.Attr.Ino,
			res: st.residueOf(resp.Attr.Ino), entries: map[string]*entryModel{}}
		c.dirs = append(c.dirs, d)
		st.root.put(&entryModel{name: name, handle: h, ino: d.ino, kind: kernel.Directory, state: stPresent})
		st.record(OpRecord{Client: c.idx, Kind: OpMkdir, Dir: rootHandle, Name: name, File: h})
	}
	if cfg.Mode == ModeData {
		for k := 0; k < 2; k++ {
			if c.createFile(p, c.dirs[k%len(c.dirs)]) == nil {
				return false
			}
		}
		if c.idx == 0 {
			for k, sf := range st.shared {
				name := fmt.Sprintf("shared%d", k)
				resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: name})
				if err != nil {
					st.failf(sf.handle, rootHandle, name, "setup shared create %s: %v", name, err)
					return false
				}
				sf.ino = resp.Attr.Ino
				st.root.put(&entryModel{name: name, handle: sf.handle, ino: sf.ino, kind: kernel.RegularFile, state: stPresent})
				st.record(OpRecord{Client: c.idx, Kind: OpCreate, Dir: rootHandle, Name: name, File: sf.handle})
			}
		}
	} else {
		for k := 0; k < 3; k++ {
			d := c.dirs[k%len(c.dirs)]
			h := st.handle()
			name := fmt.Sprintf("n%d", h)
			resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: d.ino, Name: name})
			if err != nil {
				st.failf(h, d.handle, name, "c%d: setup create %s: %v", c.idx, name, err)
				return false
			}
			d.put(&entryModel{name: name, handle: h, ino: resp.Attr.Ino, kind: kernel.RegularFile, state: stPresent})
			st.record(OpRecord{Client: c.idx, Kind: OpCreate, Dir: d.handle, Name: name, File: h})
		}
	}
	return true
}

// vec builds an n-byte kernel vector over one of the client's buffers.
func (c *tClient) vec(va vm.VirtAddr, n int) core.Vector {
	return core.Of(core.KernelSeg(c.node.Kernel, va, n))
}

// downBits is the client's current exclusion set as a bitmask.
func (c *tClient) downBits() uint64 {
	var b uint64
	for _, s := range c.cl.DownServers() {
		b |= 1 << uint(s)
	}
	return b
}

// groupMask is the bitmask of a residue's owner-group members.
func (c *tClient) groupMask(res int) uint64 {
	var b uint64
	for _, m := range c.st.groupOf(res) {
		b |= 1 << uint(m)
	}
	return b
}

// groupDeadView reports whether a residue's whole owner group is
// excluded in this client's view (an operation on it must fail
// instantly, touching nothing).
func (c *tClient) groupDeadView(res int) bool {
	mask := c.groupMask(res)
	return c.downBits()&mask == mask
}

// servingMember is the group member that answered the last read-only
// request on this residue: sharded reads always go to the first alive
// member in the client's view, failing over (and excluding) in order.
func (c *tClient) servingMember(res int) int {
	down := c.downBits()
	for _, m := range c.st.groupOf(res) {
		if down&(1<<uint(m)) == 0 {
			return m
		}
	}
	return -1
}

// noteExclusions diffs DownServers against the seen set after an
// operation: a newly-observed exclusion records the pre-operation
// mutation count (the server-side epoch snapshot happens before the
// discovering operation's own bumps) and samples recovery latency
// against the youngest unsampled fault event covering the server.
func (c *tClient) noteExclusions(preMut int) {
	st := c.st
	for _, s := range c.cl.DownServers() {
		if c.downSeen[s] {
			continue
		}
		c.downSeen[s] = true
		c.exclMut[s] = preMut
		for i := len(st.faults) - 1; i >= 0; i-- {
			f := st.faults[i]
			if f.sampled[c.idx] {
				continue
			}
			hit := false
			for _, v := range f.victims {
				if v == s {
					hit = true
					break
				}
			}
			if hit {
				f.sampled[c.idx] = true
				st.recSamples = append(st.recSamples, st.now()-f.at)
				break
			}
		}
	}
}

// tryReinstates offers every excluded server whose NIC is healthy back
// to the cluster. An admission means the resync journal replayed (or a
// spilled journal full-resynced through the peers) and the server is
// exact again, so the model drops every stale-member allowance it held
// for the slot. A refusal is only legal when there was something to
// resync — a model mutation since the exclusion snapshot, or a
// non-empty journal (replay aborts on concurrent transport faults and
// is retried later): refusing a clean re-admission is a bug.
func (c *tClient) tryReinstates(p *sim.Proc) {
	for _, s := range c.cl.DownServers() {
		if c.st.nicDown[s] {
			continue
		}
		if err := c.cl.Reinstate(p, s); err != nil {
			if c.mutCount == c.exclMut[s] && c.cl.JournalOps(s) == 0 &&
				c.cl.JournalBytes(s) == 0 && !c.cl.JournalSpilled(s) {
				c.st.failf(-1, -1, "", "c%d: reinstate of %d refused (%v) with nothing to resync", c.idx, s, err)
				return
			}
			continue
		}
		c.downSeen[s] = false
		delete(c.exclMut, s)
		c.admitExact(s)
	}
}

// admitExact drops every stale-member allowance the model held for a
// readmitted slot: Reinstate's journal replay re-applied the namespace
// mutations and re-copied the dirty data stripes the server missed, so
// from here on the member must answer exactly — lagged transitions
// clear. This is the harness's end-to-end assertion that replay
// actually converged the server: any byte or entry it still gets wrong
// is caught by the very next check that routes to it.
func (c *tClient) admitExact(s int) {
	bit := uint64(1) << uint(s)
	for _, d := range c.dirs {
		for _, name := range d.names {
			d.entries[name].lag &^= bit
		}
	}
}

// ---------------------------------------------------------------- ModeData

func (c *tClient) opData(p *sim.Proc, opIdx int) {
	switch roll := c.rng.Intn(100); {
	case roll < 26:
		c.opWrite(p, opIdx)
	case roll < 46:
		c.opRead(p)
	case roll < 54:
		c.opCreate(p)
	case roll < 60:
		c.opUnlink(p)
	case roll < 66:
		c.opRename(p)
	case roll < 72:
		c.opTruncate(p)
	case roll < 79:
		c.opReaddirData(p)
	case roll < 86:
		c.opGetattr(p)
	case roll < 91:
		c.opOpen(p)
	case roll < 96:
		c.opSeek()
	default:
		c.opFlush(p)
	}
}

func (c *tClient) pickFile() *fileModel {
	if len(c.files) == 0 {
		return nil
	}
	return c.files[c.rng.Intn(len(c.files))]
}

func (c *tClient) opWrite(p *sim.Proc, opIdx int) {
	if len(c.st.shared) > 0 && c.rng.Intn(100) < 25 {
		c.opSharedWrite(p, opIdx)
		return
	}
	f := c.pickFile()
	if f == nil {
		return
	}
	stripe := int64(c.st.cfg.Stripe)
	var off int64
	switch r := c.rng.Intn(100); {
	case r < 55 || f.size() == 0:
		off = f.size()
	case r < 80:
		off = c.rng.Int63n(f.size() + 1)
	default:
		off = f.pos
		if off > f.size() {
			off = f.size() // never create a hole
		}
	}
	n := 1 + c.rng.Intn(maxIOStripes*int(stripe))
	if max := maxFileStripes * stripe; off+int64(n) > max {
		n = int(max - off)
	}
	if n <= 0 {
		return // file at the size cap and dice chose its end
	}
	tag := fillTag(c.st.cfg.Seed, c.idx, opIdx)
	fill(c.scratch[:n], tag, off)
	if err := c.node.Kernel.WriteBytes(c.wva, c.scratch[:n]); err != nil {
		c.st.failf(f.handle, -1, "", "c%d: write buffer: %v", c.idx, err)
		return
	}
	resp, err := c.cl.Write(p, f.ino, off, c.vec(c.wva, n))
	c.writes++
	c.ops++
	if err != nil || int(resp.N) != n {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: write f%d [%d,+%d): n=%d err=%v", c.idx, f.handle, off, n, resp.N, err)
		return
	}
	if end := off + int64(n); end > f.size() {
		f.data = append(f.data, make([]byte, end-f.size())...)
	}
	copy(f.data[off:], c.scratch[:n])
	f.pos = off + int64(n)
	c.st.record(OpRecord{Client: c.idx, Kind: OpWrite, File: f.handle, Off: off, Len: n, FillTag: tag})
}

func (c *tClient) opRead(p *sim.Proc) {
	if len(c.st.shared) > 0 && c.rng.Intn(100) < 25 {
		c.opSharedRead(p)
		return
	}
	f := c.pickFile()
	if f == nil {
		return
	}
	stripe := int64(c.st.cfg.Stripe)
	off := c.rng.Int63n(f.size() + stripe) // may start past EOF
	n := 1 + c.rng.Intn(maxIOStripes*int(stripe))
	expN := f.size() - off
	if expN < 0 {
		expN = 0
	}
	if int64(n) < expN {
		expN = int64(n)
	}
	resp, err := c.cl.Read(p, f.ino, off, c.vec(c.rva, n))
	c.reads++
	c.ops++
	if err != nil {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: read f%d [%d,+%d): %v", c.idx, f.handle, off, n, err)
		return
	}
	if int64(resp.N) != expN {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: read f%d [%d,+%d): got %d bytes, model size %d wants %d",
			c.idx, f.handle, off, n, resp.N, f.size(), expN)
		return
	}
	if expN == 0 {
		return
	}
	got, err := c.node.Kernel.ReadBytes(c.rva, int(expN))
	if err != nil {
		c.st.failf(f.handle, -1, "", "c%d: read buffer: %v", c.idx, err)
		return
	}
	if !bytes.Equal(got, f.data[off:off+expN]) {
		i := firstDiff(got, f.data[off:off+expN])
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: read f%d [%d,+%d): byte %d is %#x, model says %#x",
			c.idx, f.handle, off, expN, off+int64(i), got[i], f.data[off+int64(i)])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return 0
}

// createFile is the must-succeed create (setup and ModeData storm).
func (c *tClient) createFile(p *sim.Proc, d *dirModel) *fileModel {
	st := c.st
	h := st.handle()
	name := fmt.Sprintf("f%d", h)
	c.mutCount++
	resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: d.ino, Name: name})
	c.creates++
	c.ops++
	if err != nil {
		st.failf(h, d.handle, name, "c%d: create %s/%s: %v", c.idx, d.name, name, err)
		return nil
	}
	f := &fileModel{handle: h, dir: d, name: name, ino: resp.Attr.Ino}
	c.files = append(c.files, f)
	d.put(&entryModel{name: name, handle: h, ino: f.ino, kind: kernel.RegularFile,
		state: stPresent, lag: c.downBits() & c.groupMask(d.res)})
	st.record(OpRecord{Client: c.idx, Kind: OpCreate, Dir: d.handle, Name: name, File: h})
	return f
}

func (c *tClient) opCreate(p *sim.Proc) {
	if len(c.files) >= maxFiles {
		return
	}
	c.createFile(p, c.dirs[c.rng.Intn(len(c.dirs))])
}

func (c *tClient) opUnlink(p *sim.Proc) {
	if len(c.files) <= 1 {
		return // keep at least one read/write target
	}
	i := c.rng.Intn(len(c.files))
	f := c.files[i]
	c.mutCount++
	_, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: f.dir.ino, Name: f.name})
	c.unlinks++
	c.ops++
	if err != nil {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: unlink %s/%s: %v", c.idx, f.dir.name, f.name, err)
		return
	}
	e := f.dir.entry(f.name)
	e.state = stAbsent
	e.lag |= c.downBits() & c.groupMask(f.dir.res)
	c.files = append(c.files[:i], c.files[i+1:]...)
	c.st.record(OpRecord{Client: c.idx, Kind: OpUnlink, Dir: f.dir.handle, Name: f.name, File: f.handle})
}

func (c *tClient) opRename(p *sim.Proc) {
	f := c.pickFile()
	if f == nil {
		return
	}
	src := f.dir
	dst := c.dirs[c.rng.Intn(len(c.dirs))]
	newName := fmt.Sprintf("r%d", c.st.handle())
	c.mutCount++
	_, err := c.cl.Rename(p, src.ino, f.name, dst.ino, newName)
	c.renames++
	c.ops++
	if err != nil {
		// The ModeData schedule never downs a whole owner group in any
		// client's view, so even an in-doubt outcome is a failure here.
		c.st.failf(f.handle, src.handle, f.name, "c%d: rename %s/%s -> %s/%s: %v",
			c.idx, src.name, f.name, dst.name, newName, err)
		return
	}
	oldName := f.name
	e := src.entry(oldName)
	e.state = stAbsent
	e.lag |= c.downBits() & c.groupMask(src.res)
	dst.put(&entryModel{name: newName, handle: f.handle, ino: f.ino, kind: kernel.RegularFile,
		state: stPresent, lag: c.downBits() & c.groupMask(dst.res)})
	c.st.record(OpRecord{Client: c.idx, Kind: OpRename, Dir: src.handle, Name: oldName,
		Dir2: dst.handle, Name2: newName, File: f.handle})
	f.dir, f.name = dst, newName
}

func (c *tClient) opTruncate(p *sim.Proc) {
	f := c.pickFile()
	if f == nil || f.size() == 0 {
		return
	}
	newSize := c.rng.Int63n(f.size() + 1) // shrink-only: growth would punch holes
	c.mutCount++
	_, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: f.ino, Off: newSize})
	c.truncates++
	c.ops++
	if err != nil {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: truncate f%d to %d: %v", c.idx, f.handle, newSize, err)
		return
	}
	f.data = f.data[:newSize]
	f.floor = newSize // the exact set reached every server still admissible
	if f.pos > newSize {
		f.pos = newSize
	}
	c.st.record(OpRecord{Client: c.idx, Kind: OpTruncate, File: f.handle, Size: newSize})
}

func (c *tClient) opReaddirData(p *sim.Proc) {
	d := c.dirs[c.rng.Intn(len(c.dirs))]
	resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: d.ino})
	c.readdirs++
	c.ops++
	if err != nil {
		c.st.failf(-1, d.handle, "", "c%d: readdir %s: %v", c.idx, d.name, err)
		return
	}
	c.checkReaddir(d, resp.Entries, c.servingMember(d.res))
}

// checkReaddir diffs a directory listing against the entry model,
// honoring lag (the serving member may legally have missed a
// transition it was excluded across) and Maybe states.
func (c *tClient) checkReaddir(d *dirModel, entries []kernel.DirEntry, member int) {
	bit := uint64(1) << uint(member)
	listed := make(map[string]kernel.InodeID, len(entries))
	for _, de := range entries {
		if d.entry(de.Name) == nil {
			c.st.failf(-1, d.handle, de.Name, "c%d: readdir %s lists unmodeled entry %q (ino %d)", c.idx, d.name, de.Name, de.Ino)
			return
		}
		listed[de.Name] = de.Ino
	}
	for _, name := range d.names {
		e := d.entries[name]
		got, ok := listed[name]
		switch e.state {
		case stPresent:
			if e.lag&bit != 0 {
				c.staleSkips++
				continue
			}
			if !ok {
				c.st.failf(e.handle, d.handle, name, "c%d: readdir %s misses live entry %q", c.idx, d.name, name)
				return
			}
			if e.ino != 0 && got != e.ino {
				c.st.failf(e.handle, d.handle, name, "c%d: readdir %s: %q is ino %d, model says %d", c.idx, d.name, name, got, e.ino)
				return
			}
		case stAbsent:
			if e.lag&bit != 0 {
				c.staleSkips++
				continue
			}
			if ok {
				c.st.failf(e.handle, d.handle, name, "c%d: readdir %s lists removed entry %q", c.idx, d.name, name)
				return
			}
		case stMaybe:
			c.maybeEntries++
			if ok && e.ino != 0 && got != e.ino {
				c.st.failf(e.handle, d.handle, name, "c%d: readdir %s: maybe-entry %q is ino %d, neither legal state had %d",
					c.idx, d.name, name, got, got)
				return
			}
		}
	}
}

func (c *tClient) opGetattr(p *sim.Proc) {
	f := c.pickFile()
	if f == nil {
		return
	}
	resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: f.ino})
	c.getattrs++
	c.ops++
	if err != nil {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: getattr f%d: %v", c.idx, f.handle, err)
		return
	}
	if resp.Attr.Ino != f.ino {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: getattr f%d answered ino %d", c.idx, f.handle, resp.Attr.Ino)
		return
	}
	if sz := resp.Attr.Size; sz < f.floor || sz > f.size() {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: getattr f%d size %d outside [floor %d, size %d]",
			c.idx, f.handle, sz, f.floor, f.size())
	}
}

func (c *tClient) opOpen(p *sim.Proc) {
	f := c.pickFile()
	if f == nil {
		return
	}
	resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: f.dir.ino, Name: f.name})
	c.getattrs++
	c.ops++
	if err != nil {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: open (lookup) %s/%s: %v", c.idx, f.dir.name, f.name, err)
		return
	}
	if resp.Attr.Ino != f.ino {
		c.st.failf(f.handle, f.dir.handle, f.name, "c%d: open %s/%s resolved ino %d, model says %d",
			c.idx, f.dir.name, f.name, resp.Attr.Ino, f.ino)
		return
	}
	f.pos = 0
}

func (c *tClient) opSeek() {
	f := c.pickFile()
	if f == nil {
		return
	}
	switch c.rng.Intn(3) {
	case 0:
		f.pos = 0
	case 1:
		f.pos = f.size()
	default:
		f.pos = c.rng.Int63n(f.size() + 1)
	}
	c.seeks++
	c.ops++
}

func (c *tClient) opFlush(p *sim.Proc) {
	if err := c.cl.FlushSizes(p); err != nil {
		c.st.failf(-1, -1, "", "c%d: size flush: %v", c.idx, err)
		return
	}
	if len(c.cl.DownServers()) == 0 {
		// Every server saw the publishes: the floor may rise to the
		// exact size for every private file.
		for _, f := range c.files {
			f.floor = f.size()
		}
	}
}

// ------------------------------------------------------------ shared files

func (c *tClient) opSharedWrite(p *sim.Proc, opIdx int) {
	k := c.rng.Intn(len(c.st.shared))
	sf := c.st.shared[k]
	if sf.eraLock {
		return
	}
	// Occasionally turn the write into the era truncation — the §9
	// cross-client StStale exercise.
	if c.rng.Intn(100) < 10 && sf.busy == 0 {
		c.eraTruncate(p, sf)
		return
	}
	stripe := int64(c.st.cfg.Stripe)
	base, re := sf.base(c.idx, stripe), regionBytes(stripe)
	own := sf.ownEnd[c.idx]
	var off int64
	if own < re && (own == 0 || c.rng.Intn(100) < 75) {
		off = base + own
	} else {
		off = base + c.rng.Int63n(own)
	}
	n := 1 + c.rng.Intn(int(stripe))
	if off+int64(n) > base+re {
		n = int(base + re - off)
	}
	tag := fillTag(c.st.cfg.Seed, c.idx, opIdx)
	fill(c.scratch[:n], tag, off)
	sf.busy++
	defer func() { sf.busy-- }()
	if err := c.node.Kernel.WriteBytes(c.wva, c.scratch[:n]); err != nil {
		c.st.failf(sf.handle, -1, "", "c%d: shared write buffer: %v", c.idx, err)
		return
	}
	resp, err := c.cl.Write(p, sf.ino, off, c.vec(c.wva, n))
	c.writes++
	c.ops++
	if err != nil || int(resp.N) != n {
		c.st.failf(sf.handle, -1, "", "c%d: shared write f%d [%d,+%d): n=%d err=%v", c.idx, sf.handle, off, n, resp.N, err)
		return
	}
	if sf.regions[c.idx] == nil {
		sf.regions[c.idx] = make([]byte, re)
	}
	copy(sf.regions[c.idx][off-base:], c.scratch[:n])
	if end := off - base + int64(n); end > sf.ownEnd[c.idx] {
		sf.ownEnd[c.idx] = end
	}
	c.st.record(OpRecord{Client: c.idx, Kind: OpWrite, File: sf.handle, Off: off, Len: n, FillTag: tag})
}

func (c *tClient) opSharedRead(p *sim.Proc) {
	k := c.rng.Intn(len(c.st.shared))
	sf := c.st.shared[k]
	if sf.eraLock || sf.ownEnd[c.idx] == 0 {
		return
	}
	sf.busy++
	defer func() { sf.busy-- }()
	stripe := int64(c.st.cfg.Stripe)
	base, own := sf.base(c.idx, stripe), sf.ownEnd[c.idx]
	rel := c.rng.Int63n(own)
	n := 1 + c.rng.Intn(int(own-rel))
	resp, err := c.cl.Read(p, sf.ino, base+rel, c.vec(c.rva, n))
	c.reads++
	c.ops++
	if err != nil || int(resp.N) != n {
		c.st.failf(sf.handle, -1, "", "c%d: shared read f%d [%d,+%d): n=%d err=%v", c.idx, sf.handle, base+rel, n, resp.N, err)
		return
	}
	got, err := c.node.Kernel.ReadBytes(c.rva, n)
	if err != nil {
		c.st.failf(sf.handle, -1, "", "c%d: shared read buffer: %v", c.idx, err)
		return
	}
	if !bytes.Equal(got, sf.regions[c.idx][rel:rel+int64(n)]) {
		i := firstDiff(got, sf.regions[c.idx][rel:rel+int64(n)])
		c.st.failf(sf.handle, -1, "", "c%d: shared read f%d era %d: byte %d is %#x, region shadow says %#x",
			c.idx, sf.handle, sf.era, base+rel+int64(i), got[i], sf.regions[c.idx][rel+int64(i)])
	}
}

// eraTruncate begins a new write generation on a shared file: an exact
// size-zero set that bumps the size epoch, so every other client's
// next publish is refused StStale and revalidates. Callers checked
// busy == 0; eraLock keeps it that way (no yield in between).
func (c *tClient) eraTruncate(p *sim.Proc, sf *sharedFile) {
	sf.eraLock = true
	defer func() { sf.eraLock = false }()
	c.mutCount++
	_, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: sf.ino, Off: 0})
	c.truncates++
	c.ops++
	if err != nil {
		c.st.failf(sf.handle, -1, "", "c%d: era truncate f%d: %v", c.idx, sf.handle, err)
		return
	}
	for i := range sf.regions {
		sf.regions[i] = nil
		sf.ownEnd[i] = 0
	}
	sf.era++
	c.st.record(OpRecord{Client: c.idx, Kind: OpTruncate, File: sf.handle, Size: 0})
}

// ------------------------------------------------------------------ ModeNS

func (c *tClient) opNS(p *sim.Proc) {
	switch roll := c.rng.Intn(100); {
	case roll < 25:
		c.nsCreate(p)
	case roll < 43:
		c.nsUnlink(p)
	case roll < 58:
		c.nsRename(p)
	case roll < 72:
		c.nsReaddir(p)
	case roll < 88:
		c.nsLookup(p)
	default:
		c.nsGetattr(p)
	}
}

// pickNSEntry picks a dice-positioned entry satisfying the filter, or
// nil — scanning insertion-ordered names from a random start so every
// entry stays reachable without ever iterating a map.
func (c *tClient) pickNSEntry(ok func(*entryModel) bool) (*dirModel, *entryModel) {
	dOff := c.rng.Intn(len(c.dirs))
	for di := 0; di < len(c.dirs); di++ {
		d := c.dirs[(dOff+di)%len(c.dirs)]
		if len(d.names) == 0 {
			continue
		}
		eOff := c.rng.Intn(len(d.names))
		for ei := 0; ei < len(d.names); ei++ {
			e := d.entries[d.names[(eOff+ei)%len(d.names)]]
			if ok(e) {
				return d, e
			}
		}
	}
	return nil, nil
}

func (c *tClient) nsCreate(p *sim.Proc) {
	st := c.st
	d := c.dirs[c.rng.Intn(len(c.dirs))]
	h := st.handle()
	name := fmt.Sprintf("n%d", h)
	preDead := c.groupDeadView(d.res)
	c.mutCount++
	resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: d.ino, Name: name})
	c.creates++
	c.ops++
	switch {
	case err == nil:
		d.put(&entryModel{name: name, handle: h, ino: resp.Attr.Ino, kind: kernel.RegularFile,
			state: stPresent, lag: c.downBits() & c.groupMask(d.res)})
		st.record(OpRecord{Client: c.idx, Kind: OpCreate, Dir: d.handle, Name: name, File: h})
	case fabric.IsFault(err):
		if preDead {
			st.deadGroupNoops++
			return // instant client-side refusal: nothing reached a server
		}
		// The create may have applied on members whose replies were
		// lost: two-valued, with the minted ino unknown.
		d.put(&entryModel{name: name, handle: h, kind: kernel.RegularFile, state: stMaybe})
		c.maybeEntries++
	default:
		st.failf(h, d.handle, name, "c%d: create %s/%s: unexpected %v", c.idx, d.name, name, err)
	}
}

func (c *tClient) nsUnlink(p *sim.Proc) {
	st := c.st
	d, e := c.pickNSEntry(func(e *entryModel) bool { return e.state == stPresent && e.kind == kernel.RegularFile })
	if d == nil {
		return
	}
	preDead := c.groupDeadView(d.res)
	c.mutCount++
	_, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: d.ino, Name: e.name})
	c.unlinks++
	c.ops++
	switch {
	case err == nil:
		e.state = stAbsent
		e.tainted = false // definitively gone: any stray marks went with it
		e.lag |= c.downBits() & c.groupMask(d.res)
		st.record(OpRecord{Client: c.idx, Kind: OpUnlink, Dir: d.handle, Name: e.name, File: e.handle})
	case errors.Is(err, rfsrv.ErrBusy):
		// Stray prepare marks from this entry's faulted rename answered
		// StBusy on part of the owner group — the in-doubt window
		// showing through, not divergence. Nothing changed.
		if !e.tainted {
			st.failf(e.handle, d.handle, e.name, "c%d: unlink %s/%s refused busy but no rename ever tainted it", c.idx, d.name, e.name)
			return
		}
		c.busyRefusals++
	case fabric.IsFault(err):
		if preDead {
			st.deadGroupNoops++
			return
		}
		e.state = stMaybe
		c.maybeEntries++
	default:
		st.failf(e.handle, d.handle, e.name, "c%d: unlink %s/%s: unexpected %v", c.idx, d.name, e.name, err)
	}
}

func (c *tClient) nsRename(p *sim.Proc) {
	st := c.st
	src, e := c.pickNSEntry(func(e *entryModel) bool { return e.state == stPresent })
	if src == nil {
		return
	}
	dst := c.dirs[c.rng.Intn(len(c.dirs))]
	newName := fmt.Sprintf("r%d", st.handle())
	preDead := c.groupDeadView(src.res) || c.groupDeadView(dst.res)
	crossOwner := src.res != dst.res
	c.mutCount++
	_, err := c.cl.Rename(p, src.ino, e.name, dst.ino, newName)
	c.renames++
	c.ops++
	switch {
	case err == nil:
		e.state = stAbsent
		e.tainted = false // detached everywhere alive: the marks are history
		e.lag |= c.downBits() & c.groupMask(src.res)
		dst.put(&entryModel{name: newName, handle: e.handle, ino: e.ino, kind: e.kind,
			state: stPresent, lag: c.downBits() & c.groupMask(dst.res)})
		st.record(OpRecord{Client: c.idx, Kind: OpRename, Dir: src.handle, Name: e.name,
			Dir2: dst.handle, Name2: newName, File: e.handle})
	case errors.Is(err, rfsrv.ErrBusy):
		// A marked member refused the prepare (its mark aims at the
		// earlier faulted rename's destination) while clean members
		// answered — the StBusy split. The entry is untouched; the new
		// prepare marks the clean members toward this rename's
		// destination, which a later re-drive or the end-of-run
		// classification tolerates member-by-member.
		if !e.tainted {
			st.failf(e.handle, src.handle, e.name, "c%d: rename %s/%s -> %s/%s refused busy but no rename ever tainted it",
				c.idx, src.name, e.name, dst.name, newName)
			return
		}
		c.busyRefusals++
	case errors.Is(err, rfsrv.ErrRenameInDoubt):
		// §11: exactly one of two legal states — collapsed by the
		// end-of-run re-drive. Until then both coordinates are
		// two-valued and off-limits to the generator.
		e.state = stMaybe
		e.tainted = true
		dst.put(&entryModel{name: newName, handle: e.handle, ino: e.ino, kind: e.kind,
			state: stMaybe, tainted: true})
		c.inDoubt = append(c.inDoubt, &inDoubtRename{src: src, dst: dst, srcName: e.name,
			dstName: newName, handle: e.handle, ino: e.ino, kind: e.kind})
		st.logf("t=%v c%d: rename %s/%s -> %s/%s in doubt (%v; down %v)",
			st.now(), c.idx, src.name, e.name, dst.name, newName, err, c.cl.DownServers())
		c.maybeEntries += 2
	case fabric.IsFault(err):
		if preDead {
			st.deadGroupNoops++
			return
		}
		if crossOwner {
			// Determinate state A: the source entry's presence is intact
			// on every member (prepare and abort never detach), but
			// stray prepare marks may linger on members whose abort
			// reply was lost — the entry refuses further mutation.
			e.tainted = true
			// The commit OpLink may have applied at the destination with
			// the reply lost: that coordinate alone is two-valued.
			dst.put(&entryModel{name: newName, handle: e.handle, ino: e.ino, kind: e.kind,
				state: stMaybe, tainted: true})
			c.maybeEntries++
		} else {
			// Same-owner renames are single-fan: a total fault leaves
			// both coordinates two-valued.
			e.state = stMaybe
			e.tainted = true
			dst.put(&entryModel{name: newName, handle: e.handle, ino: e.ino, kind: e.kind,
				state: stMaybe, tainted: true})
			c.maybeEntries += 2
		}
	default:
		st.failf(e.handle, src.handle, e.name, "c%d: rename %s/%s -> %s/%s: unexpected %v",
			c.idx, src.name, e.name, dst.name, newName, err)
	}
}

func (c *tClient) nsReaddir(p *sim.Proc) {
	st := c.st
	d := c.dirs[c.rng.Intn(len(c.dirs))]
	preDead := c.groupDeadView(d.res)
	resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: d.ino})
	c.readdirs++
	c.ops++
	if err != nil {
		switch {
		case fabric.IsFault(err) && preDead:
			st.deadGroupNoops++
		case fabric.IsFault(err):
			c.staleSkips++ // the fault exhausted the group mid-failover
		default:
			st.failf(-1, d.handle, "", "c%d: readdir %s: unexpected %v", c.idx, d.name, err)
		}
		return
	}
	c.checkReaddir(d, resp.Entries, c.servingMember(d.res))
}

func (c *tClient) nsLookup(p *sim.Proc) {
	st := c.st
	d, e := c.pickNSEntry(func(e *entryModel) bool { return e.state != stMaybe })
	if d == nil {
		return
	}
	preDead := c.groupDeadView(d.res)
	resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: d.ino, Name: e.name})
	c.getattrs++
	c.ops++
	member := c.servingMember(d.res)
	bit := uint64(0)
	if member >= 0 {
		bit = 1 << uint(member)
	}
	switch {
	case err == nil:
		if e.state == stAbsent && e.lag&bit == 0 {
			st.failf(e.handle, d.handle, e.name, "c%d: lookup %s/%s found a removed entry (ino %d)",
				c.idx, d.name, e.name, resp.Attr.Ino)
			return
		}
		if e.state == stPresent && e.lag&bit == 0 && e.ino != 0 && resp.Attr.Ino != e.ino {
			st.failf(e.handle, d.handle, e.name, "c%d: lookup %s/%s resolved ino %d, model says %d",
				c.idx, d.name, e.name, resp.Attr.Ino, e.ino)
		}
	case errors.Is(err, kernel.ErrNotFound):
		if e.state == stPresent && e.lag&bit == 0 {
			st.failf(e.handle, d.handle, e.name, "c%d: lookup %s/%s lost a live entry", c.idx, d.name, e.name)
		}
	case fabric.IsFault(err):
		if preDead {
			st.deadGroupNoops++
		} else {
			c.staleSkips++
		}
	default:
		st.failf(e.handle, d.handle, e.name, "c%d: lookup %s/%s: unexpected %v", c.idx, d.name, e.name, err)
	}
}

func (c *tClient) nsGetattr(p *sim.Proc) {
	st := c.st
	_, e := c.pickNSEntry(func(e *entryModel) bool {
		return e.state == stPresent && !e.tainted && e.ino != 0 && e.kind == kernel.RegularFile
	})
	if e == nil {
		return
	}
	res := st.residueOf(e.ino)
	preDead := c.groupDeadView(res)
	resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: e.ino})
	c.getattrs++
	c.ops++
	switch {
	case err == nil:
		if resp.Attr.Ino != e.ino {
			st.failf(e.handle, -1, "", "c%d: getattr ino %d answered %d", c.idx, e.ino, resp.Attr.Ino)
		}
	case fabric.IsFault(err):
		if preDead {
			st.deadGroupNoops++
		} else {
			c.staleSkips++
		}
	default:
		st.failf(e.handle, -1, "", "c%d: getattr ino %d: unexpected %v", c.idx, e.ino, err)
	}
}
