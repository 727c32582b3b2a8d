// ftgcs-sim runs FTGCS scenarios and reports the measured skews against
// the paper's bounds.
//
// Topologies, drift models, delay models and Byzantine attacks are all
// resolved by name through the shared ftgcs registry, so a new adversary
// registered from any file in this program (see burstdelay.go) is
// immediately available to every flag with no parsing changes here.
//
//	ftgcs-sim -topology line -size 5 -k 4 -f 1 -duration 60
//	ftgcs-sim -topology grid -size 4 -attack adaptive -attack-count 4
//	ftgcs-sim -topology ring -size 8 -k 1 -f 0 -attack cadence -attack-count 1
//	ftgcs-sim -topology torus -size 3 -delay burst -drift sine
//	ftgcs-sim -topology line -size 5 -seeds 8      # parallel seed sweep
//	ftgcs-sim -spec examples/specs/line-quickstart.json
//	ftgcs-sim -list                                # registered names
//
// With -spec, the scenario comes from a declarative JSON spec file — the
// same codec the ftgcs-serve experiment service accepts, so a spec
// developed locally submits to the service unchanged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ftgcs"
	"ftgcs/internal/spec"
)

func main() {
	// SIGINT/SIGTERM cancel the in-flight simulation or sweep: completed
	// results are still flushed, the interrupted remainder is reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftgcs-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ftgcs-sim", flag.ContinueOnError)
	reg := ftgcs.DefaultRegistry
	topo := fs.String("topology", "line", strings.Join(reg.TopologyNames(), "|"))
	size := fs.Int("size", 4, "topology size parameter (clusters, or side length for grid/torus, depth for tree/hypercube)")
	k := fs.Int("k", 4, "cluster size (≥ 3f+1)")
	f := fs.Int("f", 1, "per-cluster fault budget")
	rho := fs.Float64("rho", 3e-3, "hardware drift bound ρ")
	delay := fs.Float64("d", 1e-3, "max message delay d (s)")
	uncertainty := fs.Float64("u", 1e-4, "delay uncertainty U (s)")
	c2 := fs.Float64("c2", 4, "µ = c₂·ρ")
	eps := fs.Float64("eps", 0.25, "contraction margin ε")
	duration := fs.Float64("duration", 30, "simulated seconds")
	seed := fs.Int64("seed", 1, "random seed")
	drift := fs.String("drift", "spread", strings.Join(reg.DriftNames(), "|"))
	delayModel := fs.String("delay", "uniform", strings.Join(reg.DelayNames(), "|"))
	attack := fs.String("attack", "", "Byzantine strategy ("+strings.Join(reg.AttackNames(), "|")+")")
	attackCount := fs.Int("attack-count", 0, "number of clusters that get one Byzantine member (0 = all when -attack is set)")
	seeds := fs.Int("seeds", 1, "run this many seeds (seed, seed+1, …) as a parallel sweep")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	csvPath := fs.String("csv", "", "write the skew time series to this CSV file (single-seed runs)")
	jsonPath := fs.String("json", "", "write the skew time series to this JSON file (single-seed runs)")
	specPath := fs.String("spec", "", "run the scenario described by this JSON spec file (see internal/spec; other scenario flags are ignored)")
	list := fs.Bool("list", false, "list registered topologies, drift/delay models and attacks, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println("topologies:  " + strings.Join(reg.TopologyNames(), ", "))
		fmt.Println("drift models:" + " " + strings.Join(reg.DriftNames(), ", "))
		fmt.Println("delay models:" + " " + strings.Join(reg.DelayNames(), ", "))
		fmt.Println("attacks:     " + strings.Join(reg.AttackNames(), ", "))
		return nil
	}
	if *specPath != "" {
		if *seeds > 1 {
			return errors.New("-spec runs the one seed its file names; drop -seeds")
		}
		return runSpecFile(ctx, *specPath, *csvPath, *jsonPath)
	}
	if *seeds > 1 && (*csvPath != "" || *jsonPath != "") {
		return errors.New("-csv/-json export a single seed's series; drop -seeds")
	}

	// Resolve the topology once, up front: a -seeds sweep must compare the
	// same graph across seeds even for randomized families (whose builder
	// would otherwise re-draw per scenario seed).
	base, err := ftgcs.TopologyByName(*topo, *size, *seed)
	if err != nil {
		return err
	}
	opts := []ftgcs.Option{
		ftgcs.WithTopology(base),
		ftgcs.WithClusters(*k, *f),
		ftgcs.WithPhysical(*rho, *delay, *uncertainty),
		ftgcs.WithConstants(*c2, *eps),
		ftgcs.WithSeed(*seed),
		ftgcs.WithDriftName(*drift),
		ftgcs.WithDelayName(*delayModel),
		ftgcs.WithHorizon(*duration),
	}
	if *attack != "" {
		strat, err := ftgcs.AttackByName(*attack)
		if err != nil {
			return err
		}
		opts = append(opts, ftgcs.WithAttackPerCluster(func() ftgcs.Attack { return strat }, *attackCount))
	}
	sc := ftgcs.NewScenario(opts...)

	if *seeds > 1 {
		return runSeedSweep(ctx, sc, *seed, *seeds, *workers)
	}

	return runScenario(ctx, sc, func(sys *ftgcs.System) {
		fmt.Printf("topology %s: %d clusters × k=%d (%d nodes), diameter %d\n",
			*topo, sys.Clusters(), *k, sys.Nodes(), sys.Diameter())
		fmt.Printf("adversaries: drift=%s delay=%s attack=%s\n", *drift, *delayModel, attackName(*attack))
	}, *csvPath, *jsonPath)
}

// runScenario is the one single-run body behind both entry points (flags
// and -spec): build, print the entry point's header and the derived
// parameters, run to the horizon, report, export the series.
func runScenario(ctx context.Context, sc *ftgcs.Scenario, header func(sys *ftgcs.System), csvPath, jsonPath string) error {
	sys, err := sc.Build()
	if err != nil {
		return err
	}
	header(sys)
	p := sys.Params()
	fmt.Printf("parameters: T=%.3gs τ=(%.3g, %.3g, %.3g) E=%.3gs κ=%.3gs µ=%.3g ϕ=%.3g\n\n",
		p.T, p.Tau1, p.Tau2, p.Tau3, p.EG, p.Kappa, p.Mu, p.Phi)
	if err := sys.RunContext(ctx, sc.Horizon(p)); err != nil {
		return describeInterrupt(err, sys)
	}
	fmt.Println(sys.Report())
	return exportSeries(sys, csvPath, jsonPath)
}

// describeInterrupt wraps a cancellation with how far the run got; other
// errors pass through.
func describeInterrupt(err error, sys *ftgcs.System) error {
	if errors.Is(err, context.Canceled) {
		p := sys.Progress()
		return fmt.Errorf("interrupted at t=%.3gs after %d events: %w", p.Now, p.Events, err)
	}
	return err
}

// runSpecFile runs one declarative spec file — the same codec the
// ftgcs-serve experiment service accepts.
func runSpecFile(ctx context.Context, path, csvPath, jsonPath string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := spec.Parse(data)
	if err != nil {
		return err
	}
	hash, err := sp.Hash()
	if err != nil {
		return err
	}
	sc, err := sp.Compile(ftgcs.DefaultRegistry)
	if err != nil {
		return err
	}
	return runScenario(ctx, sc, func(sys *ftgcs.System) {
		fmt.Printf("spec %s\ncontent hash %s\n", path, hash)
		fmt.Printf("%s: %d clusters (%d nodes), diameter %d\n",
			sc.Name(), sys.Clusters(), sys.Nodes(), sys.Diameter())
	}, csvPath, jsonPath)
}

// exportSeries writes the recorded skew series wherever -csv/-json asked.
func exportSeries(sys *ftgcs.System, csvPath, jsonPath string) error {
	names := []string{
		ftgcs.SeriesIntraSkew, ftgcs.SeriesLocalCluster,
		ftgcs.SeriesLocalNode, ftgcs.SeriesGlobal,
	}
	write := func(path string, export func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := export(f); err != nil {
			return err
		}
		fmt.Printf("skew series written to %s\n", path)
		return nil
	}
	if csvPath != "" {
		if err := write(csvPath, func(f *os.File) error { return sys.WriteCSV(f, names...) }); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		if err := write(jsonPath, func(f *os.File) error { return sys.WriteJSON(f, names...) }); err != nil {
			return err
		}
	}
	return nil
}

func attackName(a string) string {
	if a == "" {
		return "none"
	}
	return a
}

// runSeedSweep executes the scenario across n consecutive seeds on the
// Sweep worker pool and prints one row per seed plus aggregate maxima.
// On SIGINT the sweep is canceled: rows that completed are still printed
// (identical to an uninterrupted run's), the rest are reported as
// interrupted.
func runSeedSweep(ctx context.Context, base *ftgcs.Scenario, seed int64, n, workers int) error {
	scenarios := make([]*ftgcs.Scenario, 0, n)
	for i := 0; i < n; i++ {
		scenarios = append(scenarios, base.With(
			ftgcs.WithName("seed=%d", seed+int64(i)),
			ftgcs.WithSeed(seed+int64(i)),
		))
	}
	results := ftgcs.Sweep{Workers: workers}.RunContext(ctx, scenarios)

	fmt.Printf("%-10s %-12s %-12s %-12s %-8s\n", "seed", "intra skew", "local skew", "global skew", "bounds")
	var worst ftgcs.Report
	var first *ftgcs.Report
	completed, interrupted := 0, 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			interrupted++
			continue
		}
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Name, r.Err)
		}
		rep := r.Report
		if first == nil {
			first = &rep
		}
		completed++
		status := "ok"
		if !rep.AllWithinBounds() {
			status = "VIOLATED"
		}
		fmt.Printf("%-10s %-12.3g %-12.3g %-12.3g %-8s\n",
			strings.TrimPrefix(r.Name, "seed="), rep.MaxIntraClusterSkew, rep.MaxLocalSkew, rep.MaxGlobalSkew, status)
		if rep.MaxIntraClusterSkew > worst.MaxIntraClusterSkew {
			worst.MaxIntraClusterSkew = rep.MaxIntraClusterSkew
		}
		if rep.MaxLocalSkew > worst.MaxLocalSkew {
			worst.MaxLocalSkew = rep.MaxLocalSkew
		}
		if rep.MaxGlobalSkew > worst.MaxGlobalSkew {
			worst.MaxGlobalSkew = rep.MaxGlobalSkew
		}
	}
	if first != nil {
		fmt.Printf("\nworst-case over %d seeds: intra %.3g (bound %.3g), local %.3g (bound %.3g), global %.3g (bound %.3g)\n",
			completed, worst.MaxIntraClusterSkew, first.IntraClusterBound,
			worst.MaxLocalSkew, first.LocalSkewBound,
			worst.MaxGlobalSkew, first.GlobalSkewBound)
	}
	if interrupted > 0 {
		return fmt.Errorf("interrupted: %d of %d seeds incomplete: %w", interrupted, n, context.Canceled)
	}
	return nil
}
