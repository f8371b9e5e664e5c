package rfsrv_test

// Conformance of the one rfsrv server (Server.Serve) across transports:
// the same request script must draw the same replies over GM and MX,
// leave the same per-client accounting, and leave nothing behind — no
// pool leak, no reply staging whose send never completed. Dead-peer
// cases and pinned virtual completion instants ride along.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

var transports = []string{"gm", "mx"}

// assertServerQuiet is the post-drain bar every server test shares:
// nothing in the node's pool that can never recycle, and no reply
// header still staged under an incomplete send.
func assertServerQuiet(t *testing.T, srv *rfsrv.Server, node *hw.Node) {
	t.Helper()
	if err := fabric.PoolOf(node).CheckLeaks(); err != nil {
		t.Errorf("server pool: %v", err)
	}
	if n := srv.RepliesInFlight(); n != 0 {
		t.Errorf("%d reply staging buffers still outstanding after the engine drained", n)
	}
}

// scriptReply is what the conformance script records of each reply.
type scriptReply struct {
	Step   string
	Status int32
	Attr   kernel.Attr
	N      uint32
	Epoch  uint64
	Data   []byte
}

// runScript drives the fixed request script through a window-8 Session
// over one transport and returns every reply it drew.
func runScript(t *testing.T, r *rig, p *sim.Proc, transport string) []scriptReply {
	t.Helper()
	sess := r.sessionOver(t, p, transport, 2, 8)
	kern := r.client.Kernel
	const big = 64 * 1024
	va, err := kern.Mmap(2*big, "script")
	if err != nil {
		t.Fatal(err)
	}
	vec := func(off, n int) core.Vector { return core.Of(core.KernelSeg(kern, va+vm.VirtAddr(off), n)) }
	var out []scriptReply
	record := func(step string, resp *rfsrv.Resp, err error, data []byte) *rfsrv.Resp {
		t.Helper()
		if resp == nil {
			t.Fatalf("%s over %s: no reply (%v)", step, transport, err)
		}
		out = append(out, scriptReply{step, resp.Status, resp.Attr, resp.N, resp.Epoch, data})
		return resp
	}
	root := r.serverFS.Root()

	resp, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: root, Name: "f"})
	ino := record("create", resp, err, nil).Attr.Ino
	resp, err = sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: root, Name: "f"})
	record("lookup", resp, err, nil)
	resp, err = sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: root, Name: "absent"})
	record("lookup-miss", resp, err, nil)

	batch := make([]*rfsrv.Req, 8)
	for i := range batch {
		batch[i] = &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}
		if i%2 == 1 {
			batch[i] = &rfsrv.Req{Op: rfsrv.OpLookup, Ino: root, Name: "f"}
		}
	}
	resps, err := sess.MetaBatch(p, batch)
	if err != nil || len(resps) != len(batch) {
		t.Fatalf("batch over %s: %d replies, %v", transport, len(resps), err)
	}
	for i, resp := range resps {
		record(fmt.Sprintf("batch[%d]", i), resp, nil, nil)
	}

	kern.WriteBytes(va, pattern(big))
	resp, err = sess.Write(p, ino, 0, vec(0, big))
	record("write-64k", resp, err, nil)
	kern.WriteBytes(va, bytes.Repeat([]byte{0xA7}, 8192))
	resp, err = sess.Write(p, ino, 4096, vec(0, 8192))
	record("overwrite", resp, err, nil)
	resp, err = sess.Write(p, ino, 100, vec(0, 0))
	record("write-zero", resp, err, nil)

	readBack := func(step string, target kernel.InodeID, off int64, n int) {
		kern.WriteBytes(va+vm.VirtAddr(big), bytes.Repeat([]byte{0xEE}, n))
		resp, err := sess.Read(p, target, off, vec(big, n))
		got, _ := kern.ReadBytes(va+vm.VirtAddr(big), n)
		record(step, resp, err, got)
	}
	readBack("read-eof-straddle", ino, big-1000, 4096)

	resp, err = sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: root, Name: "holey"})
	holey := record("create-holey", resp, err, nil).Attr.Ino
	kern.WriteBytes(va, bytes.Repeat([]byte{0x3C}, 4096))
	resp, err = sess.Write(p, holey, 5*4096, vec(0, 4096))
	record("write-past-hole", resp, err, nil)
	readBack("read-hole", holey, 4096, 8192)

	resp, err = sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: 5000})
	record("truncate", resp, err, nil)
	resp, err = sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
	record("getattr-after", resp, err, nil)
	readBack("read-after-truncate", ino, 4096, 4096)

	if sess.MaxInFlight() != 8 {
		t.Errorf("%s: session max in-flight %d, want 8 (the packed batch)", transport, sess.MaxInFlight())
	}
	return out
}

// TestServeConformance: one script, both transports, identical replies.
func TestServeConformance(t *testing.T) {
	replies := make(map[string][]scriptReply)
	for _, transport := range transports {
		r := newRig(t)
		r.run(t, func(p *sim.Proc) { replies[transport] = runScript(t, r, p, transport) })
		sessions := r.srv.Sessions()
		if len(sessions) != 1 {
			t.Fatalf("%s: %d server-side sessions, want 1", transport, len(sessions))
		}
		cs := sessions[0]
		if want := int64(len(replies[transport])); cs.Served.N != want {
			t.Errorf("%s: served %d requests, want %d (one per reply)", transport, cs.Served.N, want)
		}
		if cs.Outstanding != 0 || cs.MaxOutstanding < 1 {
			t.Errorf("%s: outstanding %d (max %d) after quiesce", transport, cs.Outstanding, cs.MaxOutstanding)
		}
		if r.srv.Batched.N != 7 {
			t.Errorf("%s: server unpacked %d combined requests, want 7", transport, r.srv.Batched.N)
		}
		assertServerQuiet(t, r.srv, r.server)
		if err := fabric.PoolOf(r.client).CheckLeaks(); err != nil {
			t.Errorf("%s client pool: %v", transport, err)
		}
	}
	gmR, mxR := replies["gm"], replies["mx"]
	if len(gmR) != len(mxR) {
		t.Fatalf("gm drew %d replies, mx %d", len(gmR), len(mxR))
	}
	for i := range gmR {
		if !reflect.DeepEqual(gmR[i], mxR[i]) {
			t.Errorf("%s: replies differ\n gm %+v\n mx %+v", gmR[i].Step, gmR[i], mxR[i])
		}
	}
	// Spot-check the script did what it says (identical-but-wrong would
	// pass the comparison above).
	byStep := make(map[string]scriptReply)
	for _, sr := range mxR {
		byStep[sr.Step] = sr
	}
	if sr := byStep["read-eof-straddle"]; sr.N != 1000 || !bytes.Equal(sr.Data[:1000], pattern(64 * 1024)[64*1024-1000:]) || sr.Data[1000] != 0xEE {
		t.Errorf("EOF-straddling read: N=%d, want 1000 bytes of the tail and an untouched remainder", sr.N)
	}
	if sr := byStep["read-hole"]; sr.N != 8192 || !bytes.Equal(sr.Data, make([]byte, 8192)) {
		t.Errorf("hole read: N=%d, want 8192 zero bytes", sr.N)
	}
	if sr := byStep["lookup-miss"]; sr.Status != rfsrv.StNotFound {
		t.Errorf("lookup of an absent name: status %d", sr.Status)
	}
	if a, b := byStep["getattr-after"], byStep["create"]; a.Attr.Size != 5000 || a.Epoch != b.Epoch+1 {
		t.Errorf("after truncate: size %d epoch %d (create epoch %d)", a.Attr.Size, a.Epoch, b.Epoch)
	}
	if sr := byStep["read-after-truncate"]; sr.N != 5000-4096 || sr.Data[0] != 0xA7 {
		t.Errorf("read after truncate: N=%d first byte %#x", sr.N, sr.Data[0])
	}
}

// TestServeWindowAccounting: a window-8 Session keeps eight reads on
// the wire; the server's per-client record balances, and shows the
// pipelining where the transport lets the server accept ahead.
func TestServeWindowAccounting(t *testing.T) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			const chunk, count = 16 * 1024, 24
			r.run(t, func(p *sim.Proc) {
				ino := r.seed(t, p, "f", pattern(chunk*count))
				readWindowed(t, r, p, r.sessionOver(t, p, transport, 2, 8), ino, chunk, count)
			})
			cs := r.srv.Sessions()[0]
			if cs.Served.N != count || cs.Outstanding != 0 {
				t.Errorf("served %d (want %d), outstanding %d", cs.Served.N, count, cs.Outstanding)
			}
			// A posted receive (vectorial transport) accepts a pipelined
			// client's next request while its worker is busy; the single
			// arrival-order process accounts requests one at a time.
			if deep := cs.MaxOutstanding > 1; deep != (transport == "mx") {
				t.Errorf("max outstanding %d", cs.MaxOutstanding)
			}
			assertServerQuiet(t, r.srv, r.server)
		})
	}
}

// readWindowed streams count chunk-sized reads of ino through sess,
// keeping its whole window in flight, and verifies the bytes.
func readWindowed(t *testing.T, r *rig, p *sim.Proc, sess *rfsrv.Session, ino kernel.InodeID, chunk, count int) {
	t.Helper()
	kern := sess.Node().Kernel
	window := sess.Window()
	va, err := kern.Mmap(window*chunk, "win")
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(chunk * count)
	pds := make([]rfsrv.PendingOp, window)
	retire := func(i int) {
		resp, err := pds[i%window].Wait(p)
		if err != nil || int(resp.N) != chunk {
			t.Fatalf("read %d: %+v %v", i, resp, err)
		}
		got, _ := kern.ReadBytes(va+vm.VirtAddr(i%window*chunk), chunk)
		if !bytes.Equal(got, want[i*chunk:(i+1)*chunk]) {
			t.Fatalf("read %d returned the wrong bytes", i)
		}
	}
	for i := 0; i < count; i++ {
		if i >= window {
			retire(i - window)
		}
		pd, err := sess.StartRead(p, ino, int64(i*chunk), core.Of(core.KernelSeg(kern, va+vm.VirtAddr(i%window*chunk), chunk)))
		if err != nil {
			t.Fatal(err)
		}
		pds[i%window] = pd
	}
	for i := count - window; i < count; i++ {
		retire(i)
	}
}

// TestServeSurvivesDeadClient: a client's NIC dies with a window of
// reads in flight. The server drops the replies it can no longer
// deliver (the adapters report the dead peer), keeps serving a second
// client to completion, and leaks nothing.
func TestServeSurvivesDeadClient(t *testing.T) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			const chunk, count = 4096, 16
			vr := r.onNode("victim")
			victim := vr.client
			finished := false
			r.env.Spawn("seed", func(p *sim.Proc) {
				ino := r.seed(t, p, "f", pattern(chunk*count))
				r.env.Spawn("victim", func(p *sim.Proc) {
					sess := vr.sessionOver(t, p, transport, 3, 4)
					va, _ := victim.Kernel.Mmap(4*chunk, "v")
					for i := 0; i < 4; i++ {
						if _, err := sess.StartRead(p, ino, int64(i*chunk), core.Of(core.KernelSeg(victim.Kernel, va+vm.VirtAddr(i*chunk), chunk))); err != nil {
							t.Error(err)
						}
					}
					victim.NIC.Kill() // four requests on the wire, no reply sent yet
				})
				r.env.Spawn("survivor", func(p *sim.Proc) {
					p.Sleep(1) // behind the victim's window
					readWindowed(t, r, p, r.sessionOver(t, p, transport, 2, 4), ino, chunk, count)
					finished = true
				})
			})
			r.env.Run(0)
			if !finished {
				t.Fatal("the surviving client did not finish")
			}
			answeredDead := false
			for _, cs := range r.srv.Sessions() {
				if cs.Outstanding != 0 {
					t.Errorf("session %v/%d: %d outstanding after quiesce", cs.Node, cs.EP, cs.Outstanding)
				}
				answeredDead = answeredDead || cs.Node == victim.ID && cs.Served.N > 0
			}
			if !answeredDead {
				t.Error("no request of the dead client reached the server: the drop path did not run")
			}
			assertServerQuiet(t, r.srv, r.server)
		})
	}
}

// Virtual completion instants of a fixed script, recorded at the commit
// BEFORE the server moved onto the fabric (two hand-written servers on
// the raw drivers). The single server must reproduce them to the
// nanosecond: on both transports, synchronously (window 1) and with a
// full window of eight in flight. The write phase and the read phase
// behind it were re-pinned when a payload above the eager limit started
// to travel as its own message into fresh server frames: gm/1 2 370 087
// → 1 977 671 and 5 092 887 → 4 700 471 ns, gm/8 1 854 062 → 1 723 390
// and 3 481 901 → 3 351 229, mx/1 2 337 879 → 1 925 411 and 4 998 639
// → 4 586 171, mx/8 2 001 254 → 1 851 202 and 3 627 108 → 3 477 056
// (the reads themselves take exactly as long as before). MX moved again
// when rfsrv's kernel memory started to reach MX by physical address —
// the server's request bounce and reply staging, the client's request
// and reply buffers, and eager-sized caller buffers — so a medium
// message pays no bounce copy on either side: mx/1's read phase
// 4 586 171 → 4 243 691 ns (its 16 KB reads land by DMA), mx/8 38 057 →
// 37 345, 1 851 202 → 1 850 490 and 3 477 056 → 3 462 665 ns. GM,
// which already moved all of it by physical address, did not move. MX's
// write phase, and the read phase behind it, moved again when a kernel
// write's payload above the eager limit started to follow its header in
// eager pieces instead of one rendezvous: mx/1 1 925 411 → 1 749 431 and
// 4 243 691 → 4 067 711 ns (the reads take exactly as long as before),
// mx/8 1 850 490 → 1 653 633 and 3 462 665 → 3 265 808. The window-8
// rows' batch phase moved when the server started to answer a packed
// batch of getattrs in one reply message, into the one header receive
// the batch posts, instead of one reply per request: mx/8 37 345 →
// 25 339 ns and gm/8 75 354 → 60 767, and the phases behind it by the
// same 12 006 and 14 587 ns (window 1 packs nothing).
var pinnedInstants = map[string][]sim.Time{
	"gm/1": {254991, 1977671, 4700471},
	"gm/8": {60767, 1708803, 3336642},
	"mx/1": {94183, 1749431, 4067711},
	"mx/8": {25339, 1641627, 3253802},
}

func TestServeVirtualInstantsPinned(t *testing.T) {
	for _, transport := range transports {
		for _, window := range []int{1, 8} {
			name := fmt.Sprintf("%s/%d", transport, window)
			t.Run(name, func(t *testing.T) {
				r := newRig(t)
				var got []sim.Time
				r.run(t, func(p *sim.Proc) { got = timedScript(t, r, p, transport, window) })
				if !reflect.DeepEqual(got, pinnedInstants[name]) {
					t.Errorf("virtual instants %v, pinned %v", got, pinnedInstants[name])
				}
			})
		}
	}
}

// timedScript runs the pinned script and returns the virtual instant
// at the end of each phase: a create plus a packed batch of getattrs,
// a 256 KB windowed write, a 24 x 16 KB windowed read.
func timedScript(t *testing.T, r *rig, p *sim.Proc, transport string, window int) []sim.Time {
	t.Helper()
	const chunk, count = 16 * 1024, 24
	sess := r.sessionOver(t, p, transport, 2, window)
	kern := r.client.Kernel
	resp, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: r.serverFS.Root(), Name: "timed"})
	if err != nil {
		t.Fatal(err)
	}
	ino := resp.Attr.Ino
	batch := make([]*rfsrv.Req, 8)
	for i := range batch {
		batch[i] = &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}
	}
	if _, err := sess.MetaBatch(p, batch); err != nil {
		t.Fatal(err)
	}
	instants := []sim.Time{p.Now()}
	va, _ := kern.Mmap(chunk*count, "timed")
	kern.WriteBytes(va, pattern(chunk*count))
	if resp, err := sess.Write(p, ino, 0, core.Of(core.KernelSeg(kern, va, chunk*count))); err != nil || int(resp.N) != chunk*count {
		t.Fatalf("write: %+v %v", resp, err)
	}
	instants = append(instants, p.Now())
	readWindowed(t, r, p, sess, ino, chunk, count)
	return append(instants, p.Now())
}
