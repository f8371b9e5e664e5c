// Package rig builds the one platform every cluster experiment in this
// repository runs on, and drives the storms they run on it (DESIGN.md
// §6, "Rigs"). A Desc states what differs between experiments; the rig
// fixes everything else — node and store names, creation order,
// endpoint numbering, the server's endpoint and worker count — so the
// figures, the torture harness and the rfsrv tests cannot describe the
// platform differently from each other, and the three halves of the
// sharded namespace (server, store, client) are switched by one field.
package rig

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

const (
	// ServerEP is the MX endpoint every server listens on.
	ServerEP = 1
	// Workers is every server's worker count.
	Workers = 4
)

// Desc is what distinguishes one cluster experiment's platform from
// another's.
type Desc struct {
	// Servers is the server node count (>= 1).
	Servers int
	// Replicas is the copies kept of every stripe, and the sharded
	// namespace's owner-group width: 1..Servers.
	Replicas int
	// Stripe is the stripe width in bytes (rfsrv.ValidateStripe).
	Stripe int
	// Window is every client's per-server session window (>= 1).
	Window int
	// Timeout is the per-request reply deadline; 0 leaves deadlines
	// off.
	Timeout sim.Time
	// Sharded selects the directory-owned namespace on servers, stores
	// and clients alike, instead of the replicated fan-out one.
	Sharded bool
}

func (d Desc) validate() error {
	if d.Servers < 1 {
		return fmt.Errorf("rig: %d servers", d.Servers)
	}
	if d.Replicas < 1 || d.Replicas > d.Servers {
		return fmt.Errorf("rig: %d replicas over %d servers", d.Replicas, d.Servers)
	}
	if d.Window < 1 {
		return fmt.Errorf("rig: window %d", d.Window)
	}
	if d.Timeout < 0 {
		return fmt.Errorf("rig: reply timeout %v", d.Timeout)
	}
	return rfsrv.ValidateStripe(int64(d.Stripe))
}

// Rig is one simulated PCI-XD cluster: the engine, the server nodes
// "server<j>" and whatever serves on them. New fills Stores and
// Servers; NewBare leaves them empty.
type Rig struct {
	Desc    Desc
	Env     *sim.Engine
	HW      *hw.Cluster
	Nodes   []*hw.Node      // server nodes, in slot order
	Stores  []*memfs.FS     // "backing<j>", the store behind Servers[j]
	Servers []*rfsrv.Server // the server on each node, for tests to inspect; no client holds one
	// View, once an operator cluster published it (View =
	// op.ShareView()), is attached to every cluster built afterwards.
	View *rfsrv.MemberView

	mx map[*hw.Node]*mx.MX
}

// New builds the platform with an rfsrv file server on every server
// node: memfs "backing<j>" served on MX endpoint ServerEP by Workers
// workers, enrolled in the namespace partition when d.Sharded.
func New(d Desc) (*Rig, error) {
	return NewBare(d, func(r *Rig, n *hw.Node) error {
		j := len(r.Stores)
		fs := memfs.New(fmt.Sprintf("backing%d", j), n, 0)
		srv := rfsrv.NewServer(n, fs)
		if d.Sharded {
			fs.SetInodePartition(j, d.Servers)
			if err := srv.EnableSharding(j, d.Servers, d.Replicas); err != nil {
				return err
			}
		}
		r.Stores, r.Servers = append(r.Stores, fs), append(r.Servers, srv)
		_, err := srv.ServeMX(r.MX(n), ServerEP, Workers)
		return err
	})
}

// NewBare builds the platform's nodes in slot order and calls start on
// each server node before the next one exists (the creation order
// every recorded figure was measured under), for experiments whose
// servers are not rfsrv (the NBD scenarios). Cluster is unavailable on
// a bare rig.
func NewBare(d Desc, start func(r *Rig, n *hw.Node) error) (*Rig, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	env := sim.NewEngine()
	r := &Rig{Desc: d, Env: env, HW: hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD),
		mx: make(map[*hw.Node]*mx.MX)}
	for j := 0; j < d.Servers; j++ {
		n := r.HW.AddNode(fmt.Sprintf("server%d", j))
		r.Nodes = append(r.Nodes, n)
		if err := start(r, n); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MX returns the node's MX driver, attaching it on first use: a second
// mx.Attach would take the NIC's receive path away from the first.
func (r *Rig) MX(n *hw.Node) *mx.MX {
	m := r.mx[n]
	if m == nil {
		m = mx.Attach(n)
		r.mx[n] = m
	}
	return m
}

// Cluster builds one client view of the rig's servers from node: a
// kernel-side MX fabric client per server on local endpoint epBase+j
// with the reply deadline armed, a session each, and the replicated
// striped cluster over them — sharded when the rig is, attached to the
// shared view if one is published. A second cluster on the same node
// needs its own epBase.
func (r *Rig) Cluster(p *sim.Proc, node *hw.Node, epBase int) (*rfsrv.Cluster, error) {
	d := r.Desc
	if len(r.Stores) == 0 {
		return nil, fmt.Errorf("rig: a bare rig serves no files")
	}
	sessions := make([]*rfsrv.Session, len(r.Nodes))
	for j, srv := range r.Nodes {
		fc, err := rfsrv.NewMXClient(r.MX(node), uint8(epBase+j), true, node.Kernel, srv.ID, ServerEP)
		if err != nil {
			return nil, err
		}
		fc.SetRequestTimeout(d.Timeout)
		if sessions[j], err = rfsrv.NewSession(p, fc, d.Window); err != nil {
			return nil, err
		}
	}
	cl, err := rfsrv.NewReplicatedCluster(p, sessions, d.Stripe, d.Replicas)
	if err != nil {
		return nil, err
	}
	if d.Sharded {
		if err := cl.EnableShardedNamespace(); err != nil {
			return nil, err
		}
	}
	if r.View != nil {
		cl.AttachView(r.View)
	}
	return cl, nil
}

// Run drives one storm to completion: a process <name> runs setup and,
// at the instant setup returns, spawns n closed-loop client processes
// <name>0..<name>n-1 running body; the engine then runs until it
// drains. It returns the makespan — from the end of setup to the last
// successful body's return — and the first error. A body that fails is
// not counted finished, and a body (or setup) still parked when the
// engine drains is reported as a deadlock by name. n may be 0: setup is
// then the whole run.
func (r *Rig) Run(name string, n int, setup func(p *sim.Proc) error, body func(p *sim.Proc, i int) error) (sim.Time, error) {
	var (
		first      error
		start, end sim.Time
		ready      bool
		done       = make([]bool, n)
	)
	r.Env.Spawn(name, func(p *sim.Proc) {
		if err := setup(p); err != nil {
			first = fmt.Errorf("%s setup: %w", name, err)
			return
		}
		ready = true
		start, end = p.Now(), p.Now()
		for i := 0; i < n; i++ {
			r.Env.Spawn(fmt.Sprintf("%s%d", name, i), func(p *sim.Proc) {
				if err := body(p, i); err != nil {
					if first == nil {
						first = fmt.Errorf("%s%d: %w", name, i, err)
					}
					return
				}
				end = max(end, p.Now())
				done[i] = true
			})
		}
	})
	r.Env.Run(0)
	if first == nil && !ready {
		first = fmt.Errorf("rig: %s: setup never returned (deadlock)", name)
	}
	for i := 0; first == nil && i < n; i++ {
		if !done[i] {
			first = fmt.Errorf("rig: %s%d never returned (deadlock)", name, i)
		}
	}
	return end - start, first
}
