package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/proto"
)

// bootOnce runs the server a command line describes, serves one frame
// over TCP, stops it and returns what it logged.
func bootOnce(t *testing.T, args ...string) string {
	t.Helper()
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	s, err := parse(append([]string{"-addr", "127.0.0.1:0"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	b, stop, err := s.start()
	if err != nil {
		t.Fatal(err)
	}
	c, err := proto.Dial(b.Addr(), nil)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	n, err := c.Frame(c.Space(), 0)
	c.Close()
	stop()
	if err != nil || n == 0 {
		t.Fatalf("frame over the whole scene: %d coefficients, %v\n%s", n, err, logs.String())
	}
	return logs.String()
}

func mustContain(t *testing.T, logs string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(logs, w) {
			t.Fatalf("log lacks %q:\n%s", w, logs)
		}
	}
}

func mustLack(t *testing.T, logs string, bad ...string) {
	t.Helper()
	for _, b := range bad {
		if strings.Contains(logs, b) {
			t.Fatalf("log has %q:\n%s", b, logs)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBootResidentRestart boots a resident scene on a data dir twice:
// the first boot generates the scene and writes its file, the restart
// serves it from that file, generating nothing and writing nothing.
func TestBootResidentRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-objects", "6", "-levels", "3", "-data-dir", dir}
	first := bootOnce(t, args...)
	mustContain(t, first, "generating 6 objects", `scene "default": `, "durable state in "+dir)
	mustLack(t, first, "restored")
	ckpt := engine.CheckpointPath(dir, proto.DefaultSceneName)
	written := readFile(t, ckpt)

	again := bootOnce(t, args...)
	mustContain(t, again, "restored 1 scene(s) from "+dir)
	mustLack(t, again, "generating", `scene "default": `)
	if !bytes.Equal(readFile(t, ckpt), written) {
		t.Fatal("the restart rewrote the scene file")
	}
}

// TestBootPagedCityRestart boots a paged city twice with -verify-pages:
// the first boot builds the segment and finds every page clean; a page
// corrupted between the boots is quarantined by the restart, which
// reopens the segment unchanged and still serves the other pages.
func TestBootPagedCityRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-store", "paged", "-city", "3", "-city-levels", "2", "-data-dir", dir,
		"-verify-pages", "-scrub-interval", "1h"}
	first := bootOnce(t, args...)
	mustContain(t, first, "building ", "pages clean", "paged (", "background page scrub every 1h0m0s")
	mustLack(t, first, "WARNING")

	seg := filepath.Join(dir, "scene-default.seg")
	s, err := persist.OpenSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	pages, off := s.NumPages(), s.PageOffset(1)
	s.Close()
	if pages < 2 {
		t.Fatalf("segment has %d pages; the test needs a healthy one beside the corrupt one", pages)
	}
	data := readFile(t, seg)
	data[off+8] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	again := bootOnce(t, args...)
	mustContain(t, again, "verify-pages: WARNING: 1 corrupt page(s) quarantined: [1]", "paged (")
	mustLack(t, again, "building ", "scene(s) from")
	if !bytes.Equal(readFile(t, seg), data) {
		t.Fatal("the restart changed the segment")
	}
}

// TestFlagDefaults pins the serving settings cmd/server boots with by
// default, which bench/stack.go copies, and that a zero flag still means
// none once it reaches the backend.
func TestFlagDefaults(t *testing.T) {
	s, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.cfg
	if c.IdleTimeout != 2*time.Minute || c.FrameTimeout != 30*time.Second || c.DrainTimeout != 5*time.Second ||
		c.ResumeCapacity != 1024 || c.ResumeTTL != 2*time.Minute || c.MaxSessions != 0 || c.BudgetCap != 0 {
		t.Fatalf("defaults: idle %v, frame %v, drain %v, resume %d × %v, sessions %d, budget cap %d",
			c.IdleTimeout, c.FrameTimeout, c.DrainTimeout, c.ResumeCapacity, c.ResumeTTL, c.MaxSessions, c.BudgetCap)
	}
	s, err = parse([]string{"-drain-timeout", "0", "-resume-cache", "0", "-resume-ttl", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.cfg; c.DrainTimeout >= 0 || c.ResumeCapacity >= 0 || c.ResumeTTL >= 0 {
		t.Fatalf("zero flags reach the backend as drain %v, resume %d × %v; want none (negative)",
			c.DrainTimeout, c.ResumeCapacity, c.ResumeTTL)
	}
}
