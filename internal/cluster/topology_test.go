package cluster

import (
	"strings"
	"testing"
)

func TestParseTopologyValid(t *testing.T) {
	src := `
# cluster map
city = 127.0.0.1:7001, 127.0.0.1:7002

park = 127.0.0.1:7002
museum = [::1]:7003
`
	top, err := ParseTopology(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := top.Default(); got != "city" {
		t.Fatalf("default scene %q, want city (first listed)", got)
	}
	if len(top.Order) != 3 {
		t.Fatalf("parsed %d scenes, want 3", len(top.Order))
	}
	if got := top.Replicas["city"]; len(got) != 2 || got[0] != "127.0.0.1:7001" || got[1] != "127.0.0.1:7002" {
		t.Fatalf("city replicas = %v", got)
	}
	if got := top.Replicas["museum"]; len(got) != 1 || got[0] != "[::1]:7003" {
		t.Fatalf("museum replicas = %v", got)
	}
	// Backends dedups across scenes, preserving first-appearance order.
	backends := top.Backends()
	want := []string{"127.0.0.1:7001", "127.0.0.1:7002", "[::1]:7003"}
	if len(backends) != len(want) {
		t.Fatalf("backends = %v, want %v", backends, want)
	}
	for i := range want {
		if backends[i] != want[i] {
			t.Fatalf("backends = %v, want %v", backends, want)
		}
	}
}

// TestParseTopologyErrors pins the exact failure modes a malformed
// topology must produce — each case names the substring operators will
// grep for.
func TestParseTopologyErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "duplicate scene",
			src:  "city = 127.0.0.1:7001\ncity = 127.0.0.1:7002\n",
			want: `line 2: duplicate scene "city"`,
		},
		{
			name: "empty replica list",
			src:  "city = 127.0.0.1:7001\npark =  , \n",
			want: `line 2: scene "park" has no replicas`,
		},
		{
			name: "unparseable address",
			src:  "city = 127.0.0.1\n",
			want: `line 1: bad address "127.0.0.1"`,
		},
		{
			name: "empty port",
			src:  "city = 127.0.0.1:\n",
			want: `line 1: bad address "127.0.0.1:": empty host or port`,
		},
		{
			name: "missing equals",
			src:  "# ok\ncity 127.0.0.1:7001\n",
			want: "line 2: missing '='",
		},
		{
			name: "bad scene name",
			src:  "ci/ty = 127.0.0.1:7001\n",
			want: "line 1: engine: scene name contains invalid byte",
		},
		{
			name: "empty scene name",
			src:  " = 127.0.0.1:7001\n",
			want: "line 1: engine: empty scene name",
		},
		{
			name: "no scenes",
			src:  "# only comments\n\n",
			want: "topology: no scenes",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
