// Command benchinfo prints the Table-1 characterisation of every benchmark
// kernel: code regions, read/write ratio, memory footprint, candidate and
// (with -campaign) critical data-object sizes, restart overhead and
// iteration counts.
package main

import (
	"flag"
	"fmt"
	"log"

	"easycrash/internal/apps"
	"easycrash/internal/cli"
	"easycrash/internal/core"
	"easycrash/internal/nvct"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchinfo: ")

	var (
		campaign = flag.Bool("campaign", false, "run crash campaigns for the critical-size and restart-overhead columns (slower)")
		tests    = flag.Int("tests", 80, "campaign size with -campaign")
		seed     = flag.Int64("seed", 1, "campaign seed")
	)
	flag.Parse()

	fmt.Printf("%-9s %-45s %7s %6s %10s %10s %10s %11s %6s\n",
		"bench", "description", "regions", "R/W", "footprint", "cand.size", "crit.size", "extra-iters", "iters")
	for _, name := range apps.Names() {
		factory, err := apps.New(name, apps.ProfileTest)
		if err != nil {
			log.Fatal(err)
		}
		tester, err := nvct.NewTester(factory, nvct.Config{})
		if err != nil {
			log.Fatal(err)
		}
		g := tester.Golden()
		k := factory()
		rw := float64(g.CacheStats.Loads) / float64(g.CacheStats.Stores)

		critSize, extra := "-", "-"
		if *campaign {
			res, err := core.RunWithTester(tester, core.Config{Tests: *tests, Seed: *seed})
			if err != nil {
				log.Fatal(err)
			}
			var bytes uint64
			for _, o := range g.Candidates {
				for _, c := range res.Critical {
					if o.Name == c {
						bytes += o.Size
					}
				}
			}
			critSize = cli.Size(bytes)
			if res.Final != nil {
				extra = fmt.Sprintf("%.1f", res.Final.AvgExtraIters())
			} else {
				extra = "n/a"
			}
		}

		fmt.Printf("%-9s %-45s %7d %5.1f:1 %10s %10s %10s %11s %6d\n",
			name, k.Description(), k.RegionCount(), rw,
			cli.Size(g.Footprint), cli.Size(g.CandidateBytes), critSize, extra, g.Iters)
	}
}
