package torture

// End-of-run checking: after the storm drains and every NIC is
// revived, each client re-syncs and verifies its own objects against
// the model (ModeData) or collapses the two-valued namespace states
// member-by-member (ModeNS, including the §11 in-doubt re-drives);
// then the master replays the linearized log into the reference memfs
// and diffs the result.

import (
	"bytes"
	"errors"

	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

func (c *tClient) endChecks(p *sim.Proc) {
	c.tryReinstates(p)
	if c.st.failed() {
		return
	}
	if c.st.cfg.Mode == ModeData {
		c.endData(p)
	} else {
		c.endNS(p)
	}
}

// endData verifies every private file byte-for-byte and size-exactly,
// every directory listing, and this client's shared-file region.
func (c *tClient) endData(p *sim.Proc) {
	st := c.st
	for _, f := range c.files {
		// Exact size re-sync: an explicit set reconciles every still
		// admissible server to the model size (a no-op for the data and
		// the oracle, so it is not logged).
		if _, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: f.ino, Off: f.size()}); err != nil {
			st.failf(f.handle, f.dir.handle, f.name, "c%d: end size sync f%d: %v", c.idx, f.handle, err)
			return
		}
		f.floor = f.size()
		resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: f.ino})
		if err != nil || resp.Attr.Size != f.size() {
			st.failf(f.handle, f.dir.handle, f.name, "c%d: end getattr f%d: size=%d err=%v, model %d",
				c.idx, f.handle, resp.Attr.Size, err, f.size())
			return
		}
		if lresp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: f.dir.ino, Name: f.name}); err != nil || lresp.Attr.Ino != f.ino {
			st.failf(f.handle, f.dir.handle, f.name, "c%d: end lookup %s/%s: ino=%d err=%v, model %d",
				c.idx, f.dir.name, f.name, lresp.Attr.Ino, err, f.ino)
			return
		}
		if f.size() == 0 {
			continue
		}
		n := int(f.size())
		resp, err = c.cl.Read(p, f.ino, 0, c.vec(c.rva, n))
		if err != nil || int(resp.N) != n {
			st.failf(f.handle, f.dir.handle, f.name, "c%d: end read f%d: n=%d err=%v, model size %d", c.idx, f.handle, resp.N, err, n)
			return
		}
		got, err := c.node.Kernel.ReadBytes(c.rva, n)
		if err != nil {
			st.failf(f.handle, -1, "", "c%d: end read buffer: %v", c.idx, err)
			return
		}
		if !bytes.Equal(got, f.data) {
			i := firstDiff(got, f.data)
			st.failf(f.handle, f.dir.handle, f.name, "c%d: end read f%d: byte %d is %#x, shadow says %#x",
				c.idx, f.handle, i, got[i], f.data[i])
			return
		}
	}
	for _, d := range c.dirs {
		resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: d.ino})
		if err != nil {
			st.failf(-1, d.handle, "", "c%d: end readdir %s: %v", c.idx, d.name, err)
			return
		}
		c.checkReaddir(d, resp.Entries, c.servingMember(d.res))
		if st.failed() {
			return
		}
	}
	stripe := int64(st.cfg.Stripe)
	for _, sf := range st.shared {
		own := sf.ownEnd[c.idx]
		if own == 0 {
			continue
		}
		base := sf.base(c.idx, stripe)
		resp, err := c.cl.Read(p, sf.ino, base, c.vec(c.rva, int(own)))
		if err != nil || int64(resp.N) != own {
			st.failf(sf.handle, -1, "", "c%d: end shared read f%d: n=%d err=%v, region end %d", c.idx, sf.handle, resp.N, err, own)
			return
		}
		got, err := c.node.Kernel.ReadBytes(c.rva, int(own))
		if err != nil {
			st.failf(sf.handle, -1, "", "c%d: end shared read buffer: %v", c.idx, err)
			return
		}
		if !bytes.Equal(got, sf.regions[c.idx][:own]) {
			i := firstDiff(got, sf.regions[c.idx][:own])
			st.failf(sf.handle, -1, "", "c%d: end shared read f%d era %d: byte %d is %#x, region shadow says %#x",
				c.idx, sf.handle, sf.era, base+int64(i), got[i], sf.regions[c.idx][i])
			return
		}
	}
}

// endNS re-drives every in-doubt rename through a fresh observer view
// (§11: the outcome must collapse into exactly one of the two legal
// states), then audits every entry member-by-member through the
// servers' backing stores.
func (c *tClient) endNS(p *sim.Proc) {
	st := c.st
	if len(c.inDoubt) > 0 {
		obs, err := st.rig.Cluster(p, c.node, 60)
		if err != nil {
			st.failf(-1, -1, "", "c%d: observer cluster: %v", c.idx, err)
			return
		}
		for _, idr := range c.inDoubt {
			c.redrive(p, obs, idr)
			if st.failed() {
				return
			}
		}
	}
	c.memberChecks(p)
}

// redrive resolves one in-doubt rename: §11 promises the namespace
// landed in exactly one of two legal states, and this is where the
// harness proves it. First it re-drives the same rename through the
// fresh observer view — every phase is idempotent, so that succeeds
// from state A (source intact everywhere alive) and from a uniformly
// lagging state B (source still marked everywhere), collapsing the
// outcome to a fully-linked state B. When the re-drive cannot run —
// the members the original client's exclusions routed around make the
// source fan diverge, or the source is already fully detached — the
// outcome is classified structurally against the backing stores: the
// commit (OpLink at the destination) is the one durable switch point,
// so the child under its destination name on ANY member proves state
// B, and its absence from every member proves state A. Anything else
// — the destination holding a foreign inode, or the child vanishing
// from both coordinates — fails the run.
func (c *tClient) redrive(p *sim.Proc, obs *rfsrv.Cluster, idr *inDoubtRename) {
	st := c.st
	se := idr.src.entry(idr.srcName)
	de := idr.dst.entry(idr.dstName)
	_, rerr := obs.Rename(p, idr.src.ino, idr.srcName, idr.dst.ino, idr.dstName)
	if rerr == nil {
		// Collapsed by the re-drive: detached at the source and linked
		// at the destination on every member.
		se.state, se.lag, se.tainted = stAbsent, 0, false
		de.state, de.lag, de.tainted = stPresent, 0, false
		de.ino = idr.ino
		st.record(OpRecord{Client: c.idx, Kind: OpRename, Dir: idr.src.handle, Name: idr.srcName,
			Dir2: idr.dst.handle, Name2: idr.dstName, File: idr.handle})
		return
	}
	// The re-drive could not run end to end; classify by the commit's
	// durable evidence, member by member.
	var dstLag uint64
	dstHolders := 0
	for _, m := range st.groupOf(idr.dst.res) {
		a, err := st.rig.Stores[m].Lookup(p, idr.dst.ino, idr.dstName)
		switch {
		case err == nil && a.Ino == idr.ino:
			dstHolders++
		case err == nil:
			st.failf(idr.handle, idr.dst.handle, idr.dstName,
				"c%d: in-doubt rename %s/%s -> %s/%s: member %d holds the destination as ino %d, want %d",
				c.idx, idr.src.name, idr.srcName, idr.dst.name, idr.dstName, m, a.Ino, idr.ino)
			return
		default:
			dstLag |= 1 << uint(m)
		}
	}
	if dstHolders > 0 {
		// State B: the commit fired. Members that missed it were
		// excluded in the committing client's view and stay lagged;
		// the source may be clean (finalized), absent from birth
		// (members the entry's own creation never reached), or still
		// carrying the marked entry — all tolerated member-by-member.
		se.state = stMaybe
		de.state, de.tainted = stPresent, false
		de.ino = idr.ino
		de.lag = dstLag
		st.record(OpRecord{Client: c.idx, Kind: OpRename, Dir: idr.src.handle, Name: idr.srcName,
			Dir2: idr.dst.handle, Name2: idr.dstName, File: idr.handle})
		return
	}
	// No member ever saw the commit: state A. The source entry must
	// have survived wherever it lived before the attempt (prepare and
	// abort never detach), under its pre-rename lag.
	srcHolders := 0
	for _, m := range st.groupOf(idr.src.res) {
		a, err := st.rig.Stores[m].Lookup(p, idr.src.ino, idr.srcName)
		switch {
		case err == nil && a.Ino == idr.ino:
			srcHolders++
		case err == nil:
			st.failf(idr.handle, idr.src.handle, idr.srcName,
				"c%d: in-doubt rename %s/%s -> %s/%s: member %d holds the source as ino %d, want %d",
				c.idx, idr.src.name, idr.srcName, idr.dst.name, idr.dstName, m, a.Ino, idr.ino)
			return
		}
	}
	if srcHolders == 0 {
		st.failf(idr.handle, idr.dst.handle, idr.dstName,
			"c%d: in-doubt rename %s/%s -> %s/%s resolved to neither legal state (re-drive: %v; no member holds either coordinate of ino %d)",
			c.idx, idr.src.name, idr.srcName, idr.dst.name, idr.dstName, rerr, idr.ino)
		return
	}
	se.state = stPresent
	de.state, de.lag = stAbsent, 0
	// No record: the linearized history keeps the entry at its source,
	// which is what the oracle will hold.
}

// memberChecks audits every entry of this client's directories on
// every owner-group member directly through the backing stores:
// determinate states must hold exactly on members that were never
// excluded across the transition, and Maybe entries may land either
// way but never on a third inode.
func (c *tClient) memberChecks(p *sim.Proc) {
	st := c.st
	for _, d := range c.dirs {
		for _, name := range d.names {
			e := d.entries[name]
			for _, m := range st.groupOf(d.res) {
				bit := uint64(1) << uint(m)
				if e.state != stMaybe && e.lag&bit != 0 {
					c.staleSkips++
					continue
				}
				a, err := st.rig.Stores[m].Lookup(p, d.ino, name)
				switch e.state {
				case stPresent:
					if err != nil {
						st.failf(e.handle, d.handle, name, "c%d: member %d lost live entry %s/%s: %v", c.idx, m, d.name, name, err)
						return
					}
					if e.ino != 0 && a.Ino != e.ino {
						st.failf(e.handle, d.handle, name, "c%d: member %d has %s/%s as ino %d, model says %d",
							c.idx, m, d.name, name, a.Ino, e.ino)
						return
					}
				case stAbsent:
					if err == nil {
						st.failf(e.handle, d.handle, name, "c%d: member %d still lists removed entry %s/%s (ino %d)",
							c.idx, m, d.name, name, a.Ino)
						return
					}
					if !errors.Is(err, kernel.ErrNotFound) {
						st.failf(e.handle, d.handle, name, "c%d: member %d lookup %s/%s: %v", c.idx, m, d.name, name, err)
						return
					}
				case stMaybe:
					if err == nil && e.ino != 0 && a.Ino != e.ino {
						st.failf(e.handle, d.handle, name, "c%d: member %d has maybe-entry %s/%s as ino %d — neither legal state minted it (model %d)",
							c.idx, m, d.name, name, a.Ino, e.ino)
						return
					}
				}
			}
		}
	}
}

// -------------------------------------------------------------- the oracle

// replayOracle replays the linearized log into the reference memfs
// and diffs the cluster-model end state against it.
func (st *runState) replayOracle(p *sim.Proc) {
	buf := make([]byte, maxIOStripes*st.cfg.Stripe)
	for _, r := range st.log {
		var err error
		switch r.Kind {
		case OpMkdir:
			var a kernel.Attr
			if a, err = st.oracle.Mkdir(p, st.oracleIno[r.Dir], r.Name); err == nil {
				st.oracleIno[r.File] = a.Ino
			}
		case OpCreate:
			var a kernel.Attr
			if a, err = st.oracle.Create(p, st.oracleIno[r.Dir], r.Name); err == nil {
				st.oracleIno[r.File] = a.Ino
			}
		case OpWrite:
			b := buf[:r.Len]
			fill(b, r.FillTag, r.Off)
			err = st.oracle.WriteAt(st.oracleIno[r.File], r.Off, b)
		case OpTruncate:
			err = st.oracle.Resize(st.oracleIno[r.File], r.Size)
		case OpUnlink:
			err = st.oracle.Unlink(p, st.oracleIno[r.Dir], r.Name)
		case OpRename:
			_, err = st.oracle.Rename(p, st.oracleIno[r.Dir], r.Name, st.oracleIno[r.Dir2], r.Name2)
		case OpFault:
			continue
		}
		if err != nil {
			st.failf(r.File, r.Dir, r.Name, "oracle replay rejected #%d (%s): %v", r.Seq, r.String(), err)
			return
		}
	}
	st.diffOracle(p)
}

// diffOracle compares the replayed reference against the model: every
// directory listing (root and all client dirs) and every live file's
// bytes. Model and oracle were built from the same inputs through
// entirely different code paths — the cluster through the wire
// protocol and fault handling, the oracle through plain local verbs —
// so a mismatch means the linearized log does not explain the
// observed cluster state.
func (st *runState) diffOracle(p *sim.Proc) {
	dirs := []*dirModel{st.root}
	for _, c := range st.clients {
		dirs = append(dirs, c.dirs...)
	}
	for _, d := range dirs {
		entries, err := st.oracle.Readdir(p, st.oracleIno[d.handle])
		if err != nil {
			st.failf(-1, d.handle, "", "oracle readdir d%d: %v", d.handle, err)
			return
		}
		listed := make(map[string]kernel.InodeID, len(entries))
		for _, de := range entries {
			if d.entry(de.Name) == nil {
				st.failf(-1, d.handle, de.Name, "oracle lists unmodeled entry %s/%s", d.name, de.Name)
				return
			}
			listed[de.Name] = de.Ino
		}
		for _, name := range d.names {
			e := d.entries[name]
			oino, ok := listed[name]
			switch e.state {
			case stPresent:
				if !ok {
					st.failf(e.handle, d.handle, name, "oracle diff: live entry %s/%s missing from the replay", d.name, name)
					return
				}
				if want := st.oracleIno[e.handle]; oino != want {
					st.failf(e.handle, d.handle, name, "oracle diff: %s/%s is replay-ino %d, the handle's object is %d",
						d.name, name, oino, want)
					return
				}
			case stAbsent:
				if ok {
					st.failf(e.handle, d.handle, name, "oracle diff: removed entry %s/%s still present in the replay", d.name, name)
					return
				}
			case stMaybe:
				// The entry's LAST transition was never logged, but
				// earlier ones may have been (a created-then-
				// fault-unlinked name is in the replay; a fault-created
				// one is not). Either presence is legal; only the
				// object may not change.
				if ok {
					if want, known := st.oracleIno[e.handle]; known && oino != want {
						st.failf(e.handle, d.handle, name, "oracle diff: maybe-entry %s/%s is replay-ino %d, the handle's object is %d",
							d.name, name, oino, want)
						return
					}
				}
			}
		}
	}
	for _, c := range st.clients {
		for _, f := range c.files {
			content, err := st.oracle.ContentOf(st.oracleIno[f.handle])
			if err != nil {
				st.failf(f.handle, -1, "", "oracle content f%d: %v", f.handle, err)
				return
			}
			if int64(len(content)) != f.size() {
				st.failf(f.handle, f.dir.handle, f.name, "oracle diff: f%d replay size %d, model %d", f.handle, len(content), f.size())
				return
			}
			if !bytes.Equal(content, f.data) {
				i := firstDiff(content, f.data)
				st.failf(f.handle, f.dir.handle, f.name, "oracle diff: f%d byte %d is %#x in the replay, %#x in the model",
					f.handle, i, content[i], f.data[i])
				return
			}
		}
	}
	stripe := int64(st.cfg.Stripe)
	for _, sf := range st.shared {
		content, err := st.oracle.ContentOf(st.oracleIno[sf.handle])
		if err != nil {
			st.failf(sf.handle, -1, "", "oracle content shared f%d: %v", sf.handle, err)
			return
		}
		for ci := range sf.regions {
			own := sf.ownEnd[ci]
			if own == 0 {
				continue
			}
			base := sf.base(ci, stripe)
			if int64(len(content)) < base+own {
				st.failf(sf.handle, -1, "", "oracle diff: shared f%d replay size %d short of c%d's region end %d",
					sf.handle, len(content), ci, base+own)
				return
			}
			if !bytes.Equal(content[base:base+own], sf.regions[ci][:own]) {
				i := firstDiff(content[base:base+own], sf.regions[ci][:own])
				st.failf(sf.handle, -1, "", "oracle diff: shared f%d byte %d is %#x in the replay, %#x in c%d's region shadow",
					sf.handle, base+int64(i), content[base+int64(i)], sf.regions[ci][i], ci)
				return
			}
		}
	}
}
