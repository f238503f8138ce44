// Command lbcoord is the rendezvous coordinator for multi-process
// lbnode jobs: it listens on a well-known address, waits until every
// node of the job has announced itself, then hands each the complete
// rank→address map and exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"temperedlb/cmd/internal/cli"
	"temperedlb/internal/comm/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbcoord: ")
	job := cli.Runtime{Nodes: 2} // -nodes: the lbnode processes to wait for
	job.Register(flag.CommandLine, "nodes")
	var (
		listen  = flag.String("listen", "127.0.0.1:9099", "address to listen on (lbnode -coord points here)")
		timeout = flag.Duration("timeout", 60*time.Second, "give up if the job has not fully checked in after this long")
	)
	flag.Parse()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen %s: %v (address already in use?)", *listen, err)
	}
	log.Printf("waiting for %d nodes on %s", job.Nodes, ln.Addr())

	specs, err := wire.ServeRendezvous(ln, job.Nodes, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range specs {
		fmt.Printf("node %d  ranks [%d,%d)  %s\n", s.Node, s.Lo, s.Hi, s.Addr)
	}
	log.Printf("distributed the map to %d nodes; done", job.Nodes)
}
