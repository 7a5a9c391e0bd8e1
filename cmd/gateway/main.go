// Command gateway runs the scene-routing cluster gateway: ordinary
// protocol clients connect to it as if it were a server, and each
// connection is proxied to the backend owning its scene according to a
// topology file. Scenes map to replica lists; the gateway health-probes
// every backend, ejects those that stop answering, fails a dial over to
// the next replica, and re-admits recovered backends. After the
// handshake frames, each connection is a raw byte splice — the gateway
// adds no per-frame work to the serve path.
//
// The optional -pprof-addr side listener serves net/http/pprof and
// GET /status: the routing table and backend health as plain text.
// Drains need co-located backends (one process owning both the gateway
// and the backends, as the experiment harness does), so this pure-proxy
// command offers none; see DESIGN.md §12.
//
// Usage:
//
//	gateway -topology cluster.conf [-listen :7400] [-pprof-addr localhost:7401]
//	        [-probe-every 2s] [-probe-timeout 2s] [-fail-after 2]
//	        [-dial-timeout 2s] [-stats 30s] [-stats-dump]
//
// Topology file format: one scene per line, "scene = addr1, addr2",
// with #-comments; the first scene listed is the default.
package main

import (
	"flag"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // side profiling listener, gated by -pprof-addr
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
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof and /status on this side listener (empty disables)")
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

	if *pprofAddr != "" {
		// Side listener only: the client port never exposes profiling.
		http.Handle("GET /status", statusHandler(gw))
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
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

// statusHandler serves the gateway's routing table and backend health
// (Gateway.StatusString) as plain text.
func statusHandler(gw *cluster.Gateway) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, gw.StatusString())
	})
}
