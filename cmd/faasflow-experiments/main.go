// Command faasflow-experiments regenerates every table and figure of the
// FaaSFlow paper's evaluation (plus the §2 motivation figures) on the
// simulated testbed, and runs the gated scenarios — all of them entries of
// harness.Scenarios.
//
//	faasflow-experiments -run all
//	faasflow-experiments -run fig12 -n 200
//	faasflow-experiments -run table4,fig13
//	faasflow-experiments -run chaos,overload,durable,fastpath,federation,tenants -snapshots dir
//
// Figures: fig4, fig5, fig11, table4, fig12, fig13, fig14, fig15, fig16,
// sec57, coldstart, claims, ablations. -n scales their invocation counts
// (default 1000, the paper's count, for closed/open loops; co-location
// uses n/10). Scenarios run at fixed sizes and ignore -n. Every entry
// gates its own acceptance criteria, and the tool exits non-zero when a
// gate fails; -snapshots writes the scenarios' flight recorders.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/whatif"
)

// config is the parsed command line.
type config struct {
	run                    string
	n                      int
	whatif                 string
	whatifN, whatifW       int
	cpuprofile, memprofile string
	csvDir, svgDir         string
	snapDir                string
	explicitRun            bool
}

// parseFlags parses args into a config. An invalid command line, such as
// -n below 1, is an error; main exits 2 on it.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("faasflow-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.run, "run", "all", "comma-separated experiment and scenario list, or 'all'")
	fs.IntVar(&c.n, "n", 1000, "invocations per measurement (at least 1)")
	fs.StringVar(&c.whatif, "whatif", "", "run the causal what-if sweep on Genome and write the profile JSON to this file (skips experiments unless -run is passed explicitly)")
	fs.IntVar(&c.whatifN, "whatif-n", 200, "invocations per what-if counterfactual run (CI smoke uses a small value)")
	fs.IntVar(&c.whatifW, "whatif-width", 50, "Genome workflow width for the what-if sweep")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile taken at the end of the run to this file")
	fs.StringVar(&c.csvDir, "csv", "", "also write each experiment's table as CSV into this directory")
	fs.StringVar(&c.svgDir, "svg", "", "also write each experiment's figure as SVG into this directory")
	fs.StringVar(&c.snapDir, "snapshots", "", "write each scenario's flight-recorder snapshots into this directory")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.n < 1 {
		return c, fmt.Errorf("-n must be at least 1, got %d", c.n)
	}
	fs.Visit(func(f *flag.Flag) { c.explicitRun = c.explicitRun || f.Name == "run" })
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
		os.Exit(2)
	}
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memprofile != "" {
		// Heap profile at normal exit; error paths os.Exit and skip it, as
		// a partial profile of a failed run would mislead more than help.
		defer func() {
			f, err := os.Create(c.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
			}
		}()
	}
	if c.whatif != "" && !c.explicitRun {
		// A bare -whatif runs only the sweep; experiments still run when
		// -run is given alongside.
		c.run = ""
	}
	selected, err := selectExperiments(c.run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
		os.Exit(2)
	}
	if len(selected) == 0 && c.whatif == "" {
		fmt.Fprintf(os.Stderr, "faasflow-experiments: nothing to run; known: %s\n", knownExperiments())
		os.Exit(2)
	}
	for _, dir := range []string{c.csvDir, c.svgDir, c.snapDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fail(err)
		}
	}

	for _, sc := range selected {
		fmt.Printf("== %s: %s ==\n", sc.Name, sc.Title)
		start := time.Now()
		if err := runExperiment(c, sc); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", sc.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", sc.Name, time.Since(start).Round(time.Millisecond))
	}
	if c.whatif != "" {
		if err := runWhatIf(c.whatif, c.whatifW, c.whatifN); err != nil {
			fmt.Fprintln(os.Stderr, "faasflow-experiments: whatif:", err)
			os.Exit(1)
		}
	}
}

// fail reports a setup error and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
	os.Exit(1)
}

// runExperiment runs one entry at c.n: print its table and notes, write
// its CSV, charts and snapshots where asked, then fail on its gate.
func runExperiment(c config, sc harness.Scenario) error {
	rep, err := sc.Run(c.n)
	if err != nil {
		return err
	}
	if rep.Table != nil {
		fmt.Print(rep.Table.String())
		if err := writeFile(c.csvDir, sc.Name+".csv", []byte(rep.Table.CSV())); err != nil {
			return err
		}
	}
	for _, note := range rep.Notes {
		fmt.Println(note)
	}
	if c.svgDir != "" {
		for _, ch := range rep.Charts {
			svg, err := ch.Chart.SVG()
			if err != nil {
				return fmt.Errorf("rendering %s: %w", ch.Name, err)
			}
			if err := writeFile(c.svgDir, ch.Name+".svg", []byte(svg)); err != nil {
				return err
			}
		}
	}
	if c.snapDir != "" {
		for _, s := range rep.Snapshots {
			data, err := s.Snapshot.Marshal()
			if err != nil {
				return err
			}
			if err := writeFile(c.snapDir, s.Name, data); err != nil {
				return err
			}
		}
	}
	return rep.Gate
}

// writeFile writes data to dir/name; an empty dir means the output is off.
func writeFile(dir, name string, data []byte) error {
	if dir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// selectExperiments resolves a comma-separated -run list ("all" selects
// everything) into registry entries in table order. An unknown name is an
// error, so a typo cannot silently skip a gated entry.
func selectExperiments(list string) ([]harness.Scenario, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var selected []harness.Scenario
	for _, sc := range harness.Scenarios {
		if want["all"] || want[sc.Name] {
			selected = append(selected, sc)
			delete(want, sc.Name)
		}
	}
	delete(want, "all")
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s; known: %s", strings.Join(unknown, ", "), knownExperiments())
	}
	return selected, nil
}

// knownExperiments lists every -run name in table order.
func knownExperiments() string {
	names := make([]string, len(harness.Scenarios))
	for i, sc := range harness.Scenarios {
		names[i] = sc.Name
	}
	return strings.Join(names, " ")
}

// runWhatIf executes the full virtual-speedup sweep on the canonical Genome
// scenario and writes the causal-profile artifact. The sweep is exact and
// deterministic: same width, n, and seed produce a byte-identical file,
// which is what the CI scenarios job diffs.
func runWhatIf(path string, width, n int) error {
	fmt.Printf("== whatif: causal sweep (Genome width %d, n %d) ==\n", width, n)
	start := time.Now()
	prof, err := whatif.Sweep(whatif.GenomeScenario(width, n), nil)
	if err != nil {
		return err
	}
	data, err := prof.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	points := 0
	for _, c := range prof.Curves {
		points += len(c.Points)
	}
	fmt.Printf("whatif: wrote %s (%d curves, %d counterfactual points, %v)\n",
		path, len(prof.Curves), points, time.Since(start).Round(time.Millisecond))
	return nil
}
