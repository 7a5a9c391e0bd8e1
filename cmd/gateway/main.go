// Command gateway runs the scene-routing cluster gateway: ordinary
// protocol clients connect to it as if it were a server, and each
// connection is proxied to the backend owning its scene according to a
// topology file. Scenes map to replica lists; the gateway health-probes
// every backend, ejects those that stop answering, fails a dial over to
// the next replica, and re-admits recovered backends. After the
// handshake frames, each connection is a raw byte splice — the gateway
// adds no per-frame work to the serve path.
//
// The optional -admin listener answers cluster control requests: status
// reports the routing table and backend health. Drain requests need
// co-located backends (one process owning both the gateway and the
// backends, as the experiment harness does) and are refused cleanly by
// a pure-proxy deployment like this command; see DESIGN.md §12.
//
// Usage:
//
//	gateway -topology cluster.conf [-listen :7400] [-admin localhost:7401]
//	        [-probe-every 2s] [-probe-timeout 2s] [-fail-after 2]
//	        [-dial-timeout 2s] [-stats 30s] [-stats-dump]
//
// Topology file format: one scene per line, "scene = addr1, addr2",
// with #-comments; the first scene listed is the default.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
)

func main() {
	var (
		topology     = flag.String("topology", "", "topology file mapping scenes to backend replica lists (required)")
		listen       = flag.String("listen", ":7400", "client listen address")
		admin        = flag.String("admin", "", "control listen address for status/drain requests (empty disables)")
		probeEvery   = flag.Duration("probe-every", 2*time.Second, "backend health-probe period (0 disables probing)")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second, "per-probe dial plus greeting bound")
		failAfter    = flag.Int("fail-after", 2, "consecutive probe failures that eject a backend")
		dialTimeout  = flag.Duration("dial-timeout", 2*time.Second, "backend dial bound while routing")
	)
	statsFlags := stats.RegisterFlags(flag.CommandLine, 0)
	flag.Parse()

	if *topology == "" {
		log.Fatal("gateway: -topology is required")
	}
	top, err := cluster.LoadTopology(*topology)
	if err != nil {
		log.Fatal(err)
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Topology:     top,
		Stats:        stats.Default,
		Logf:         log.Printf,
		ProbeEvery:   *probeEvery,
		ProbeTimeout: *probeTimeout,
		FailAfter:    *failAfter,
		DialTimeout:  *dialTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *admin != "" {
		ctl := cluster.NewController(gw, nil, stats.Default)
		alis, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("admin: %v", err)
		}
		defer alis.Close()
		go func() {
			if err := ctl.ServeAdmin(alis); err != nil {
				log.Printf("admin: %v", err)
			}
		}()
		log.Printf("admin control on %v", alis.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v; shutting down", s)
		gw.Close()
	}()

	stop := statsFlags.Start(stats.Default, log.Printf)
	defer stop()
	log.Printf("routing %d scene(s), default %q, across %d backend(s)",
		len(top.Order), top.Default(), len(top.Backends()))
	if err := gw.ListenAndServe(*listen); err != nil {
		log.Fatal(err)
	}
	log.Printf("shutdown complete")
}
