package rfsrv_test

// Readmission re-images sizes (DESIGN.md §9, §13): a returning server
// takes every regular file's size, size epoch and layout from the
// newest-epoch merge over the live members and itself, under the view's
// fence, and re-copies its runs of every file whose epoch moved while it
// was out. Four shapes pin it: a stalled member that applied an era
// truncate late keeps the new era other clients wrote to it; a hole
// grown after a missed truncate reads as zeros at the exact size; a
// re-image never shrinks past another client's extending writes that
// were in flight when it began; and a spilled journal full-resyncs a
// slot holding a whole-on-home file and part of a striped one.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// heldStripes lists the stripes of an n-stripe standard-layout file
// that slot holds on a ring of servers slots 0..servers-1 with the given
// replication (stripe k on positions k mod N .. +R-1), computed here
// independently of the code under test.
func heldStripes(slot, servers, replicas, n int) []int {
	var out []int
	for k := 0; k < n; k++ {
		for j := 0; j < replicas; j++ {
			if (k+j)%servers == slot {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// assertHolds checks that server slot's store holds want at [off,
// off+len(want)) of ino.
func assertHolds(t *testing.T, r *clusterRig, slot int, ino kernel.InodeID, off int64, want []byte, what string) {
	t.Helper()
	if got := r.serverFS[slot].ReadRange(ino, off, len(want)); !bytes.Equal(got, want) {
		t.Errorf("server %d holds wrong bytes for %s at [%d,%d) (%d of %d read)", slot, what, off, off+int64(len(want)), len(got), len(want))
	}
}

// TestReinstateKeepsLateEraWrites: client A's era truncate times out on
// a stalled member, which A excludes; the stall drains and the member
// applies the truncate late, then client B — which never excluded it —
// writes the new era to it. A's readmission must keep every new-era
// byte on that member: a replayed exact size set would truncate it
// again and lose them.
func TestReinstateKeepsLateEraWrites(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		clA := r.clusterRep(t, p, 4, testStripe, 2)
		clB := r.clusterRepAt(t, p, 20, 4, testStripe, 2)
		const size = 2 * testStripe
		ino := clusterCreate(t, p, clA, "era")
		elasticWrite(t, p, r, clA, ino, 0, pattern(size))

		r.servers[1].NIC.StallFor(10 * time.Millisecond)
		if _, err := clA.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: 0}); err != nil {
			t.Fatalf("era truncate across the stall: %v", err)
		}
		if down := clA.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down = %v after the truncate timed out on the stalled member, want [1]", down)
		}
		p.Sleep(10 * time.Millisecond)
		if n := r.serverFS[1].LocalSize(ino); n != 0 {
			t.Fatalf("stalled member's size = %d after its stall drained, want 0 (the late truncate)", n)
		}

		era := bytes.Repeat([]byte{0xe2}, size)
		elasticWrite(t, p, r, clB, ino, 0, era)

		if err := clA.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		if n := r.serverFS[1].LocalSize(ino); n != size {
			t.Fatalf("readmitted member's size = %d, want %d", n, size)
		}
		for _, k := range heldStripes(1, 3, 2, size/testStripe) {
			assertHolds(t, r, 1, ino, int64(k*testStripe), era[k*testStripe:(k+1)*testStripe], "the new era")
		}
		// Served by the readmitted member: both stripes are its own.
		r.servers[0].NIC.Kill()
		r.servers[2].NIC.Kill()
		if got := elasticReadBack(t, p, r, clA, ino, size); !bytes.Equal(got, era) {
			t.Error("the readmitted member served wrong bytes")
		}
		assertWindowsIdle(t, clA)
		r.checkNoLeaks(t)
	})
}

// TestReinstateZeroesHoleAfterMissedTruncate: a file is truncated to
// zero while slot 1 is out, then extended with a hole by a write that
// lands on no stripe slot 1 holds. After Reinstate slot 1 holds the
// exact size and zeros in the hole — not its pre-truncate bytes, and
// not a size the ungrown journal left behind.
func TestReinstateZeroesHoleAfterMissedTruncate(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		ino := clusterCreate(t, p, cl, "hole")
		elasticWrite(t, p, r, cl, ino, 0, pattern(4*testStripe))

		r.servers[1].NIC.Kill()
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: 0}); err != nil {
			t.Fatalf("truncate with server 1 dark: %v", err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down = %v, want [1]", down)
		}
		// Stripe 2 lives on slots 2 and 0: the write leaves [0, 2 stripes)
		// a hole, which slot 1 holds all of.
		tail := bytes.Repeat([]byte{0x77}, testStripe)
		elasticWrite(t, p, r, cl, ino, 2*testStripe, tail)

		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		const size = 3 * testStripe
		if n := r.serverFS[1].LocalSize(ino); n != size {
			t.Fatalf("readmitted server's size = %d, want %d", n, size)
		}
		zeros := make([]byte, testStripe)
		for _, k := range []int{0, 1} {
			assertHolds(t, r, 1, ino, int64(k*testStripe), zeros, "the hole")
		}
		r.servers[0].NIC.Kill()
		want := append(make([]byte, 2*testStripe), tail...)
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, want) {
			t.Error("read through the readmitted server: wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestReinstateFencesForeignExtends: three other clients append to
// their files, each in its own process, while client A — attached to
// the same view — readmits a server. The fence drains the writes in
// flight and holds the next ones until the re-image is imported, so
// the import never shrinks the server past a foreign append: every
// append is on it afterwards.
func TestReinstateFencesForeignExtends(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		clA := r.clusterRep(t, p, 4, testStripe, 2)
		view := clA.ShareView()
		const writers, appends, chunk = 3, 16, 3 * testStripe
		inos := make([]kernel.InodeID, writers)
		for w := range inos {
			inos[w] = clusterCreate(t, p, clA, fmt.Sprintf("appends%d", w))
			elasticWrite(t, p, r, clA, inos[w], 0, pattern(chunk))
		}

		r.servers[1].NIC.Kill()
		elasticWrite(t, p, r, clA, inos[0], 0, pattern(chunk))
		if down := clA.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down = %v, want [1]", down)
		}
		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)

		running := writers
		for w, ino := range inos {
			cl := r.clusterRepAt(t, p, 20+10*w, 4, testStripe, 2)
			cl.AttachView(view)
			r.env.Spawn(fmt.Sprintf("appender%d", w), func(wp *sim.Proc) {
				for k := 1; k <= appends; k++ {
					elasticWrite(t, wp, r, cl, ino, int64(k*chunk), pattern(chunk))
				}
				running--
			})
		}
		p.Sleep(100 * time.Microsecond) // appends are on the wire
		if err := clA.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		for running > 0 {
			p.Sleep(50 * time.Microsecond)
		}
		const size = (appends + 1) * chunk
		for _, ino := range inos {
			if n := r.serverFS[1].LocalSize(ino); n != size {
				t.Fatalf("readmitted server's size = %d, want %d: the re-image shrank it past a foreign append", n, size)
			}
			for _, k := range heldStripes(1, 3, 2, size/testStripe) {
				want := pattern(chunk)[k*testStripe%chunk:][:testStripe]
				assertHolds(t, r, 1, ino, int64(k*testStripe), want, "an append")
			}
		}
		assertWindowsIdle(t, clA)
		r.checkNoLeaks(t)
	})
}

// TestReinstateWholeFullResync spills the journal of a slot that holds
// a whole-on-home file and part of a striped one: the full-slice resync
// walks every file's runs under its own class and restores both on the
// slot.
func TestReinstateWholeFullResync(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		cl.SetJournalLimits(1, 0)
		whole := wholeCreate(t, p, cl, 0, "whole")
		striped := clusterCreate(t, p, cl, "striped")
		const wholeSize, stripedSize = 3 * testStripe, 34 * testStripe
		writeAt(t, p, r, cl, whole, 0, pattern(wholeSize))
		writeAt(t, p, r, cl, striped, 0, pattern(stripedSize))
		if cl.LayoutOf(whole) != rfsrv.LayoutWhole || cl.LayoutOf(striped) != rfsrv.LayoutStandard {
			t.Fatalf("layouts %v and %v, want whole and standard", cl.LayoutOf(whole), cl.LayoutOf(striped))
		}
		victim := cl.HomeServer(whole)

		r.servers[victim].NIC.Kill()
		wholeData, stripedData := bytes.Repeat([]byte{0x3e}, wholeSize), pattern(stripedSize)
		copy(stripedData, bytes.Repeat([]byte{0xc1}, 4*testStripe))
		writeAt(t, p, r, cl, whole, 0, wholeData)
		writeAt(t, p, r, cl, striped, 0, stripedData[:4*testStripe])
		for _, name := range []string{"d1", "d2"} {
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: name}); err != nil {
				t.Fatalf("mkdir %s: %v", name, err)
			}
		}
		if !cl.JournalSpilled(victim) {
			t.Fatal("two mutations under a one-op cap did not spill the journal")
		}

		r.servers[victim].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, victim); err != nil {
			t.Fatalf("full-slice resync with a whole-on-home file: %v", err)
		}
		if cl.ReinstateRefusals.N != 1 {
			t.Fatalf("ReinstateRefusals = %d, want 1 (the full-resync fallback)", cl.ReinstateRefusals.N)
		}
		if n := r.serverFS[victim].LocalSize(whole); n != wholeSize {
			t.Errorf("whole-on-home file: size %d on its home, want %d", n, wholeSize)
		}
		assertHolds(t, r, victim, whole, 0, wholeData, "the whole-on-home file")
		if n := r.serverFS[victim].LocalSize(striped); n != stripedSize {
			t.Errorf("striped file: size %d on the resynced server, want %d", n, stripedSize)
		}
		for _, k := range heldStripes(victim, 3, 2, (stripedSize+testStripe-1)/testStripe) {
			off := k * testStripe
			assertHolds(t, r, victim, striped, int64(off), stripedData[off:min(off+testStripe, stripedSize)], "the striped file")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestReinstateTimesItsReadmission: ReinstateTime gains exactly the
// virtual time of each readmission — from the call to its return —
// and nothing for a call with nobody to readmit or one that fails.
func TestReinstateTimesItsReadmission(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 2, testStripe, 2)
		ino := clusterCreate(t, p, cl, "f")
		elasticWrite(t, p, r, cl, ino, 0, pattern(4*testStripe))
		readmit := func(want bool) sim.Time {
			t.Helper()
			before, start := cl.ReinstateTime, p.Now()
			err := cl.Reinstate(p, 1)
			if (err == nil) != want {
				t.Fatalf("reinstate: %v, want success %v", err, want)
			}
			if took := p.Now() - start; want && cl.ReinstateTime-before != took {
				t.Fatalf("ReinstateTime grew %v over a %v readmission", cl.ReinstateTime-before, took)
			}
			return cl.ReinstateTime - before
		}

		r.servers[1].NIC.Kill()
		elasticWrite(t, p, r, cl, ino, 0, pattern(4*testStripe)) // excludes server 1, journals the stripes
		if got := readmit(false); got != 0 {
			t.Fatalf("a failed readmission added %v", got)
		}
		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if got := readmit(true); got <= 0 {
			t.Fatalf("a readmission that copied %d bytes took %v", cl.ResyncBytes.Bytes, got)
		}
		if got := readmit(true); got != 0 || cl.Reinstates.N != 1 {
			t.Fatalf("reinstating a healthy server added %v (%d readmissions)", got, cl.Reinstates.N)
		}
	})
}
