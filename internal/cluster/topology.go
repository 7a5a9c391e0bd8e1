// Package cluster scales the single-process serving stack out to a
// small fleet: a scene-routing gateway fronts ordinary protocol
// clients, proxying each connection to the backend that owns its scene,
// with per-backend health probing, dial-time failover across a scene's
// replica list, and a live drain path that relocates a scene between
// backends by segment-ship-replay without dropping its sessions.
//
// The cluster layer sits strictly above proto/engine: backends are
// unmodified protocol servers, clients are unmodified protocol clients,
// and session continuity across failover rides the existing resume
// machinery (token + durable session journal). The gateway never
// interprets post-handshake traffic — once a session starts it splices
// raw bytes.
package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"repro/internal/engine"
)

// MaxTopologyScenes bounds a topology file (a fat-finger guard, far
// above any deployment this repo models).
const MaxTopologyScenes = 1024

// Topology is the gateway's static routing map: which backends serve
// which scene, in failover priority order. The first scene listed is
// the cluster's default — the scene a client lands on when it never
// sends a scene-select, mirroring engine.Registry's default-scene rule.
type Topology struct {
	// Order lists scene names in file order (Order[0] is the default).
	Order []string
	// Replicas maps each scene to its backend addresses, first address
	// preferred. Every list is non-empty (validated at load).
	Replicas map[string][]string
}

// Default returns the default scene name ("" for an empty topology,
// which ParseTopology never returns).
func (t *Topology) Default() string {
	if t == nil || len(t.Order) == 0 {
		return ""
	}
	return t.Order[0]
}

// Backends returns the deduplicated backend addresses across all
// scenes, in first-appearance order — the set the health prober walks.
func (t *Topology) Backends() []string {
	seen := make(map[string]bool)
	var out []string
	for _, scene := range t.Order {
		for _, addr := range t.Replicas[scene] {
			if !seen[addr] {
				seen[addr] = true
				out = append(out, addr)
			}
		}
	}
	return out
}

// ParseTopology reads a topology file: one scene per line in the form
//
//	scene = host:port, host:port, ...
//
// Blank lines and #-comments are ignored. Scene names follow the
// engine's scene-name rules; every scene needs at least one replica;
// addresses must be host:port with a non-empty port; a scene may appear
// only once. Errors carry the 1-based line number.
func ParseTopology(r io.Reader) (*Topology, error) {
	t := &Topology{Replicas: make(map[string][]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: topology line %d: missing '='", lineNo)
		}
		name = strings.TrimSpace(name)
		if err := engine.ValidateSceneName(name); err != nil {
			return nil, fmt.Errorf("cluster: topology line %d: %w", lineNo, err)
		}
		if _, dup := t.Replicas[name]; dup {
			return nil, fmt.Errorf("cluster: topology line %d: duplicate scene %q", lineNo, name)
		}
		var replicas []string
		for _, field := range strings.Split(rest, ",") {
			addr := strings.TrimSpace(field)
			if addr == "" {
				continue
			}
			host, port, err := net.SplitHostPort(addr)
			if err != nil {
				return nil, fmt.Errorf("cluster: topology line %d: bad address %q: %v", lineNo, addr, err)
			}
			if host == "" || port == "" {
				return nil, fmt.Errorf("cluster: topology line %d: bad address %q: empty host or port", lineNo, addr)
			}
			replicas = append(replicas, addr)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("cluster: topology line %d: scene %q has no replicas", lineNo, name)
		}
		if len(t.Order) >= MaxTopologyScenes {
			return nil, fmt.Errorf("cluster: topology line %d: more than %d scenes", lineNo, MaxTopologyScenes)
		}
		t.Order = append(t.Order, name)
		t.Replicas[name] = replicas
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: topology: %w", err)
	}
	if len(t.Order) == 0 {
		return nil, fmt.Errorf("cluster: topology: no scenes")
	}
	return t, nil
}

// LoadTopology parses the topology file at path.
func LoadTopology(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTopology(f)
}
