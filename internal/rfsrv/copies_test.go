package rfsrv_test

// What small I/O costs in host copies, rfsrv handing MX its kernel
// memory by physical address (DESIGN.md §4): MX copies a medium message
// through a bounce on both sides only when it names virtual memory.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// TestMXSmallIOPaysNoMediumCopies counts CPU copy bytes on a 4-server
// MX cluster. An 8 KB write rides inline in its request: the client
// copies nothing, and nor does the server, whose receiver landed the
// page-aligned payload in frames the block store takes by page flip
// (8 192 bytes while the payload was copied out of the request bounce).
// Its read-back into a 16 KB kernel buffer
// lands by DMA. A batch of 8 lookups and a readdir listing, both longer
// than MX's small-message limit, copy nothing on either side. Nor do a
// 64 KB write and read: a rendezvous into fresh frames installed by page
// flip, and a zero-copy reply from the block store.
func TestMXSmallIOPaysNoMediumCopies(t *testing.T) {
	const small, big = 8 << 10, 64 << 10
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 8, big) // a window of 8: the batch is one message
		copies := func() (client, server int64) {
			for _, n := range r.servers {
				server += n.CPU.CopyStats.Bytes
			}
			return r.client.CPU.CopyStats.Bytes, server
		}
		charge := func(what string, wantClient, wantServer int64, op func() error) {
			t.Helper()
			c0, s0 := copies()
			if err := op(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			c1, s1 := copies()
			if c1-c0 != wantClient || s1-s0 != wantServer {
				t.Errorf("%s copied %d bytes on the client and %d on the servers, want %d and %d",
					what, c1-c0, s1-s0, wantClient, wantServer)
			}
		}
		ino := clusterCreate(t, p, cl, "f")
		va, src := r.kbuf(t, big)
		r.client.Kernel.WriteBytes(va, pattern(big))
		charge("an 8 KB write", 0, 0, func() error {
			_, err := cl.Write(p, ino, 0, src.Slice(0, small))
			return err
		})
		dva, dst := r.kbuf(t, 2*small)
		charge("its read-back into 16 KB", 0, 0, func() error {
			resp, err := cl.Read(p, ino, 0, dst)
			if err == nil && resp.N != small {
				err = fmt.Errorf("read %d bytes, want %d", resp.N, small)
			}
			return err
		})
		if got, _ := r.client.Kernel.ReadBytes(dva, small); !bytes.Equal(got, pattern(small)) {
			t.Error("the read-back differs from the write")
		}

		for i := 0; i < 8; i++ {
			clusterCreate(t, p, cl, fmt.Sprintf("a-longer-file-name-%02d", i))
		}
		// A lookup routes to its name's home server: eight of one name
		// travel there as one combined message.
		var lookups []*rfsrv.Req
		for i := 0; i < 8; i++ {
			lookups = append(lookups, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: 0, Name: "a-longer-file-name-00"})
		}
		if len(rfsrv.EncodeReq(lookups[0]))*len(lookups) <= r.rig.HW.Params.MXSmallMax {
			t.Fatal("the batch would fit one small message")
		}
		charge("a MetaBatch of 8 lookups", 0, 0, func() error {
			_, err := cl.MetaBatch(p, lookups)
			return err
		})
		charge("a readdir listing", 0, 0, func() error {
			resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: 0})
			if err == nil && len(resp.Entries) != 9 {
				err = fmt.Errorf("listed %d entries, want 9", len(resp.Entries))
			}
			return err
		})

		charge("a 64 KB write", 0, 0, func() error {
			_, err := cl.Write(p, ino, 0, src)
			return err
		})
		charge("a 64 KB read", 0, 0, func() error {
			_, err := cl.Read(p, ino, 0, core.Of(core.KernelSeg(r.client.Kernel, va, big)))
			return err
		})
	})
}
