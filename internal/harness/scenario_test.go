package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// reportBytes flattens everything a Report carries, snapshots marshaled.
func reportBytes(t *testing.T, r Report) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(r.Table.String())
	b.WriteString(strings.Join(r.Notes, "\n"))
	fmt.Fprintf(&b, "\ngate: %v\n", r.Gate)
	for _, s := range r.Snapshots {
		data, err := s.Snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s.Name)
		b.Write(data)
	}
	return b.Bytes()
}

// TestScenarioRegistry runs every registered scenario once: names and
// snapshot file names must be unique (the snapshots of all scenarios
// share one directory) and every gate must pass. Each family's
// deterministic test reruns its scenario for byte-identity.
func TestScenarioRegistry(t *testing.T) {
	names, files := map[string]bool{}, map[string]string{}
	for _, sc := range Scenarios {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		r, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if r.Gate != nil {
			t.Errorf("%s: gate: %v", sc.Name, r.Gate)
		}
		if len(r.Snapshots) == 0 {
			t.Errorf("%s: no snapshots", sc.Name)
		}
		for _, s := range r.Snapshots {
			if prev, ok := files[s.Name]; ok {
				t.Errorf("%s: snapshot %s already written by %s", sc.Name, s.Name, prev)
			}
			files[s.Name] = sc.Name
		}
	}
}

// requireDeterministic runs the registered scenario name twice and
// requires byte-identical Reports, snapshots included: every fault,
// admission decision and claim race is on the simulation clock.
func requireDeterministic(t *testing.T, name string) {
	t.Helper()
	for _, sc := range Scenarios {
		if sc.Name != name {
			continue
		}
		a, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if ra, rb := reportBytes(t, a), reportBytes(t, b); !bytes.Equal(ra, rb) {
			t.Errorf("%s: two runs produced different reports (%d vs %d bytes)", name, len(ra), len(rb))
		}
		return
	}
	t.Fatalf("no scenario %q", name)
}
