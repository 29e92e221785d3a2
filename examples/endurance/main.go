// endurance reproduces the paper's NVM-write comparison (Figure 9): how many
// extra NVM media writes EasyCrash's selective flushing costs versus copying
// checkpoints, for each kernel. Fewer writes means longer NVM lifetime.
//
//	go run ./examples/endurance
package main

import (
	"fmt"
	"log"

	"easycrash"
)

func main() {
	log.SetFlags(0)

	fmt.Println("normalized NVM writes (1.00 = plain run, no fault tolerance):")
	fmt.Printf("%-10s %12s %16s %12s\n", "bench", "easycrash", "ckpt-critical", "ckpt-all")

	var ecSum, allSum float64
	var n int
	for _, name := range easycrash.KernelNames() {
		factory, err := easycrash.NewKernel(name, easycrash.ProfileTest)
		if err != nil {
			log.Fatal(err)
		}
		tester, err := easycrash.NewTester(factory, easycrash.TesterConfig{})
		if err != nil {
			log.Fatal(err)
		}

		// Let the framework pick the critical objects and regions, then
		// compare the write traffic of its policy against checkpointing.
		result, err := easycrash.RunWithTester(tester, easycrash.Config{Tests: 60, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		policy := result.Policy
		if policy == nil {
			policy = easycrash.IterationPolicy(result.Critical)
		}
		rep, err := easycrash.CompareWrites(tester, policy, result.Critical)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %12.3f %16.3f %12.3f\n",
			name, rep.NormalizedEasyCrash(), rep.NormalizedCkptCritical(), rep.NormalizedCkptAll())
		ecSum += rep.NormalizedEasyCrash()
		allSum += rep.NormalizedCkptAll()
		n++
	}
	fmt.Printf("%-10s %12.3f %16s %12.3f\n", "average", ecSum/float64(n), "", allSum/float64(n))
	fmt.Println("\n(the checkpoint runs take a single checkpoint — the paper's deliberately")
	fmt.Println("conservative comparison; real C/R checkpoints repeatedly)")
}
