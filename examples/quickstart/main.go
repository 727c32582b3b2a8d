// Quickstart: synchronize a line of three clusters (k=4, f=1) with one
// silent Byzantine node, run for 60 simulated seconds, and check every
// skew bound the paper proves.
//
// The scenario is assembled with the functional-options API and built into
// a System that is then driven by hand; Scenario.Run does both in one call.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ftgcs"
)

func main() {
	sc := ftgcs.NewScenario(
		ftgcs.WithTopology(ftgcs.Line(3)), // clusters 0–1–2
		ftgcs.WithClusters(4, 1),          // k = 3f+1, one Byzantine tolerated per cluster
		ftgcs.WithPhysical(1e-3, 1e-3, 1e-4),
		ftgcs.WithSeed(42),
		ftgcs.WithDrift(ftgcs.GradientDrift{}),
		ftgcs.WithAttackName("silent", 5), // node 5 (cluster 1) crashed
	)

	sys, err := sc.Build()
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	p := sys.Params()
	fmt.Printf("derived parameters: round T=%.3gs  E=%.3gs  κ=%.3gs  µ=%.3g\n",
		p.T, p.EG, p.Kappa, p.Mu)
	fmt.Printf("topology: %d clusters, %d physical nodes, diameter %d\n\n",
		sys.Clusters(), sys.Nodes(), sys.Diameter())

	if err := sys.Run(60); err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Println(sys.Report())

	fmt.Println("cluster clocks at the end of the run:")
	for c := 0; c < sys.Clusters(); c++ {
		fmt.Printf("  cluster %d: L_C = %.6f s\n", c, sys.ClusterClock(c))
	}
	fmt.Printf("\nnode 0's estimate of cluster 1: %.6f (truth %.6f)\n",
		sys.Estimate(0, 1), sys.ClusterClock(1))
}
