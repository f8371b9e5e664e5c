package hw

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// pingRig is a two-node rig whose receiver wakes a waiting sender from
// its handler: the smallest closed loop over the NIC pipeline.
type pingRig struct {
	*testRig
	arrived *sim.Chan[int]
}

func newPingRig() *pingRig {
	r := &pingRig{testRig: newRig(PCIXD)}
	r.arrived = sim.NewChan[int](r.env)
	r.b.NIC.handlers[protoTest] = func(p *sim.Proc, m *Message) { r.arrived.Send(len(m.Payload)) }
	return r
}

// TestMessageCostsTwoSwitches pins the host cost the event-callback
// stages exist for: a gather send between two idle nodes, delivered to
// a handler that wakes the waiting sender, hands the baton from the
// sender to the receive process and back — two goroutine switches per
// message, however many fragments it has. The transmit and link stages
// run on whichever of the two is dispatching events. (As processes they
// cost 4, 6, 57 and 901 switches at these sizes.)
func TestMessageCostsTwoSwitches(t *testing.T) {
	for _, size := range []int{64, 4 << 10, 64 << 10, 1 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			r := newPingRig()
			xs := gatherBuf(t, r.a, size)
			const n = 10
			var switches uint64
			r.env.Spawn("send", func(p *sim.Proc) {
				for i := 0; i <= n; i++ {
					if i == 1 { // the first message also started the receive process
						switches = r.env.Switches()
					}
					r.a.NIC.Send(&TxJob{Msg: &Message{Dst: r.b.ID, Proto: protoTest}, Gather: xs})
					if got := r.arrived.Recv(p); got != size {
						t.Errorf("delivered %d bytes, want %d", got, size)
					}
				}
				switches = r.env.Switches() - switches
			})
			r.env.Run(0)
			if switches != 2*n {
				t.Errorf("%d messages of %d B cost %d goroutine switches, want %d (sender → receive process → sender)", n, size, switches, 2*n)
			}
		})
	}
}

// benchMessage is one gather send of the given size per iteration, from
// the sender's DMA to the handler that wakes it.
func benchMessage(b *testing.B, size int) {
	r := newPingRig()
	xs := gatherBuf(b, r.a, size)
	b.ReportAllocs()
	r.env.Spawn("send", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := NewTxJob(0)
			j.Msg.Dst, j.Msg.Proto, j.Gather = r.b.ID, protoTest, xs
			r.a.NIC.Send(j)
			if got := r.arrived.Recv(p); got != size {
				b.Errorf("delivered %d bytes, want %d", got, size)
			}
		}
	})
	r.env.Run(0)
}

// BenchmarkMessage4K is a page-sized message: what the per-message
// machinery costs the host in time and allocations (one record).
func BenchmarkMessage4K(b *testing.B) { benchMessage(b, 4<<10) }

// BenchmarkGatherSend64K is a 64 KB zero-copy send, seventeen fragments.
// The payload buffer comes from the pool, so what is left per message
// is the send's one record: well under 1 KB.
func BenchmarkGatherSend64K(b *testing.B) { benchMessage(b, 64<<10) }

// BenchmarkInterleavedSend is the send queues under the mix they exist
// for: per iteration one node sends four 64 KB messages and four
// header-only one-fragment messages (a clear-to-send's shape) to four
// nodes, each small one to a node other than the bulk message before
// it, so every small message passes another node's bulk data. The eight
// job records are built once and re-armed, so what is left per
// iteration is the stages themselves: 0 allocs/op.
func BenchmarkInterleavedSend(b *testing.B) {
	env := sim.NewEngine()
	c := NewCluster(env, DefaultParams(), PCIXD)
	src := c.AddNode("src")
	arrived := sim.NewChan[int](env)
	var jobs []*TxJob
	for i := 0; i < 4; i++ {
		c.AddNode(fmt.Sprint("dst", i)).NIC.Handle(protoTest, func(p *sim.Proc, m *Message) { arrived.Send(len(m.Payload)) })
	}
	xs := gatherBuf(b, src, 64<<10)
	for i := 0; i < 4; i++ {
		bulk := NewTxJob(0)
		bulk.Msg.Dst, bulk.Msg.Proto, bulk.Gather = NodeID(1+i), protoTest, xs
		cts := NewTxJob(14)
		cts.Msg.Dst, cts.Msg.Proto, cts.PIO = NodeID(1+(i+1)%4), protoTest, true
		jobs = append(jobs, bulk, cts)
	}
	b.ReportAllocs()
	env.Spawn("send", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				m := j.Msg
				m.TxDone, m.txDone, m.arrived = nil, sim.Signal{}, 0
				src.NIC.Send(j)
			}
			for range jobs {
				arrived.Recv(p)
			}
		}
	})
	env.Run(0)
}
