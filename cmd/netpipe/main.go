// Command netpipe runs the NETPIPE-style ping-pong benchmark over any
// transport in the repository and prints a latency/bandwidth table.
//
// Usage:
//
//	go run ./cmd/netpipe -transport mx -mode kernel
//	go run ./cmd/netpipe -transport sockets-gm -link xe
//	go run ./cmd/netpipe -transport gm -mode physical -max 65536
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/figures"
	"repro/internal/hw"
	"repro/internal/netpipe"
)

func main() {
	transport := flag.String("transport", "mx", "gm | mx | sockets-gm | sockets-mx")
	mode := flag.String("mode", "user", "buffer addressing for gm/mx: user | kernel | physical")
	link := flag.String("link", "xd", "card model: xd (250 MB/s) | xe (500 MB/s)")
	maxSize := flag.Int("max", 1<<20, "largest message size")
	iters := flag.Int("iters", 10, "round trips per size")
	trace := flag.Bool("trace", false, "print each message's fw-send and fw-recv NIC steps to stderr")
	flag.Parse()

	model := hw.PCIXD
	if *link == "xe" {
		model = hw.PCIXE
	}
	var am netpipe.AddrMode
	switch *mode {
	case "user":
		am = netpipe.UserBuf
	case "kernel":
		am = netpipe.KernelBuf
	case "physical":
		am = netpipe.PhysBuf
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(1)
	}

	cfg := figures.Config{Iters: *iters, Warmup: 2}
	if *trace {
		cfg.Probe = func(s hw.Step) {
			if s.Frag < 0 {
				fmt.Fprintln(os.Stderr, s)
			}
		}
	}
	pts, err := figures.RunPingPong(*transport, am, model, netpipe.Sizes(*maxSize), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("# transport=%s mode=%s link=%s\n", *transport, *mode, model)
	fmt.Printf("%12s %14s %14s\n", "size(B)", "one-way(µs)", "bw(MB/s)")
	for _, pt := range pts {
		fmt.Printf("%12d %14.2f %14.1f\n", pt.Size, float64(pt.OneWay.Nanoseconds())/1000, pt.MBps)
	}
}
