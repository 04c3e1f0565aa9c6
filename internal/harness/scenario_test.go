package harness

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// reportBytes flattens everything a Report carries, snapshots marshaled.
func reportBytes(t *testing.T, r Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	b.WriteString(strings.Join(r.Notes, "\n"))
	fmt.Fprintf(&b, "\ngate: %v\n", r.Gate)
	for _, c := range r.Charts {
		svg, err := c.Chart.SVG()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(c.Name + svg)
	}
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

// registryN is the -n the registry tests run the figures at; the golden
// pins were recorded at it.
const registryN = 100

// reports caches each entry's Report at registryN, so the registry and
// pin tests share one run of every figure.
var reports = map[string]Report{}

func reportOf(t *testing.T, sc Scenario) Report {
	t.Helper()
	if r, ok := reports[sc.Name]; ok {
		return r
	}
	r, err := sc.Run(registryN)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	reports[sc.Name] = r
	return r
}

// flightRecorders are the scenarios that must write snapshots.
var flightRecorders = map[string]bool{
	"chaos": true, "overload": true, "durable": true, "fastpath": true, "federation": true, "tenants": true,
}

// TestScenarioRegistry runs every registered entry once: names, snapshot
// file names and chart file names must be unique (each kind shares one
// output directory), every gate must pass, and every flight-recorder
// scenario must write snapshots. Each family's deterministic test reruns
// its scenario for byte-identity; the golden pins cover the figures.
func TestScenarioRegistry(t *testing.T) {
	names, files, charts := map[string]bool{}, map[string]string{}, map[string]string{}
	for _, sc := range Scenarios {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		r := reportOf(t, sc)
		if r.Gate != nil {
			t.Errorf("%s: gate: %v", sc.Name, r.Gate)
		}
		if flightRecorders[sc.Name] && len(r.Snapshots) == 0 {
			t.Errorf("%s: no snapshots", sc.Name)
		}
		for _, s := range r.Snapshots {
			if prev, ok := files[s.Name]; ok {
				t.Errorf("%s: snapshot %s already written by %s", sc.Name, s.Name, prev)
			}
			files[s.Name] = sc.Name
		}
		for _, c := range r.Charts {
			if prev, ok := charts[c.Name]; ok {
				t.Errorf("%s: chart %s already written by %s", sc.Name, c.Name, prev)
			}
			charts[c.Name] = sc.Name
		}
	}
	for name := range flightRecorders {
		if !names[name] {
			t.Errorf("flight-recorder scenario %s is not registered", name)
		}
	}
}

// pinnedFigures are the entries testdata/figures.golden pins, in order.
var pinnedFigures = []string{"fig4", "fig5", "fig11", "table4", "fig12", "fig13", "fig14", "fig15", "fig16", "sec57", "coldstart", "claims"}

// hostColumns matches the column gaps of a rendered table row.
var hostColumns = regexp.MustCompile(`  +`)

// TestFiguresGolden pins every figure's table and summary lines at
// registryN exactly as faasflow-experiments prints them. Fig 16's wall
// time and alloc columns are host measurements and are masked.
func TestFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, name := range pinnedFigures {
		var sc Scenario
		for _, s := range Scenarios {
			if s.Name == name {
				sc = s
			}
		}
		if sc.Run == nil {
			t.Fatalf("no scenario %q", name)
		}
		r := reportOf(t, sc)
		var b strings.Builder
		if r.Table != nil {
			b.WriteString(r.Table.String())
		}
		for _, note := range r.Notes {
			b.WriteString(note + "\n")
		}
		body := b.String()
		if name == "fig16" {
			lines := strings.Split(body, "\n")
			for i, line := range lines {
				if line != "" && line[0] >= '0' && line[0] <= '9' {
					f := hostColumns.Split(line, -1)
					lines[i] = f[0] + "  -  -  " + f[3]
				}
			}
			body = strings.Join(lines, "\n")
		}
		fmt.Fprintf(&got, "== %s: %s ==\n%s\n", sc.Name, sc.Title, body)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("figures drifted from testdata/figures.golden at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("figures drifted from testdata/figures.golden: %d lines, want %d", len(gl), len(wl))
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
		a, err := sc.Run(registryN)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.Run(registryN)
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
