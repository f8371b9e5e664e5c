// Filesystem example: mount the ORFS in-kernel remote filesystem over
// the MX kernel interface, write and read files through the VFS, and
// show the two access types the paper studies — buffered (page cache,
// physically addressed page transfers) and direct (O_DIRECT, zero-copy
// from user buffers) — plus the metadata caching an in-kernel client
// gets for free.
//
// Run with: go run ./examples/filesystem
package main

import (
	"fmt"
	"log"

	knapi "repro"
)

func main() {
	s := knapi.NewSim(knapi.PCIXD)
	client := s.AddNode("client")
	server := s.AddNode("server")

	// Server: a memfs-backed file server on an MX kernel endpoint.
	backing := knapi.NewMemFS("backing", server, 0)
	srv := knapi.NewFileServer(server, backing)
	if _, err := srv.ServeMX(knapi.AttachMX(server), 1, 2); err != nil {
		log.Fatal(err)
	}

	mxC := knapi.AttachMX(client)
	s.Spawn("app", func(p *knapi.Proc) {
		// Client endpoint, the synchronous protocol over it (a session
		// at window 1), and the mount.
		ep, err := knapi.NewMXClient(mxC, 2, true, client.Kernel, server.ID, 1)
		if err != nil {
			log.Fatal(err)
		}
		cl, err := knapi.NewFSSession(p, ep, 1)
		if err != nil {
			log.Fatal(err)
		}
		osys := knapi.NewOS(client, 0)
		orfsFS := knapi.NewORFS("orfs", cl)
		osys.Mount("/mnt/orfs", orfsFS)

		// The application: a user process with a 1MB buffer.
		as := client.NewUserSpace("app")
		buf, err := as.Mmap(1<<20, "io-buffer")
		if err != nil {
			log.Fatal(err)
		}

		// Create a directory tree and a data file.
		if err := osys.Mkdir(p, "/mnt/orfs/project"); err != nil {
			log.Fatal(err)
		}
		f, err := osys.Open(p, "/mnt/orfs/project/results.dat", knapi.OCreate)
		if err != nil {
			log.Fatal(err)
		}
		data := make([]byte, 300*1024)
		for i := range data {
			data[i] = byte(i % 251)
		}
		as.WriteBytes(buf, data)
		if _, err := f.Write(p, as, buf, len(data)); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(p); err != nil { // flushes dirty pages
			log.Fatal(err)
		}
		fmt.Printf("[%8v] wrote %d KB through the page cache (per-page writeback RPCs)\n",
			p.Now(), len(data)/1024)

		// Buffered read: cold cache (dropped first), then warm.
		a, _ := osys.Stat(p, "/mnt/orfs/project/results.dat")
		osys.PC.InvalidateInode(orfsFS, a.Ino)
		g, _ := osys.Open(p, "/mnt/orfs/project/results.dat", 0)
		t0 := p.Now()
		g.ReadAt(p, as, buf, len(data), 0)
		cold := p.Now() - t0
		t1 := p.Now()
		g.ReadAt(p, as, buf, len(data), 0)
		warm := p.Now() - t1
		g.Close(p)
		fmt.Printf("[%8v] buffered read: cold %v, warm %v (page cache: %d hits, %d misses)\n",
			p.Now(), cold, warm, osys.PC.HitCount.N, osys.PC.MissCount.N)

		// Direct read: O_DIRECT, data lands in the user buffer without
		// touching the page cache (the zero-copy path, §2.3.2).
		d, _ := osys.Open(p, "/mnt/orfs/project/results.dat", knapi.ODirect)
		t2 := p.Now()
		n, err := d.ReadAt(p, as, buf, len(data), 0)
		if err != nil {
			log.Fatal(err)
		}
		direct := p.Now() - t2
		d.Close(p)
		fmt.Printf("[%8v] direct read of %d KB: %v (%.1f MB/s)\n",
			p.Now(), n/1024, direct, float64(n)/direct.Seconds()/1e6)

		// Metadata: the dentry cache absorbs repeated walks.
		before := orfsFS.MetaOps.N
		for i := 0; i < 20; i++ {
			if _, err := osys.Stat(p, "/mnt/orfs/project/results.dat"); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("[%8v] 20 stats issued %d metadata RPCs (VFS caches at work, §3.1)\n",
			p.Now(), orfsFS.MetaOps.N-before)

		ents, _ := osys.Readdir(p, "/mnt/orfs/project")
		for _, e := range ents {
			fmt.Printf("           /mnt/orfs/project/%s (ino %d)\n", e.Name, e.Ino)
		}
	})

	s.Run()
}
