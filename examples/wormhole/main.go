// Bit-serial routing (§7): long messages under a random permutation.
// Store-and-forward routing re-buffers the whole M-flit message at
// every hop (Θ(n·M) completion); splitting each message into n pieces
// and pipelining them over the n embedded CCC copies (Theorem 3,
// edge-congestion 2) completes in O(M + n).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"multipath"
	"multipath/internal/netsim"
	"multipath/internal/traffic"
)

func main() {
	const n = 8 // CCC levels; host Q_11, 2048 nodes
	mc, err := multipath.CCCMultiCopy(n)
	if err != nil {
		log.Fatal(err)
	}
	q := mc.Host
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(q.Nodes())
	demand := multipath.PermutationDemand(perm)
	fmt.Printf("random permutation on Q_%d (%d nodes), %d CCC copies (congestion 2)\n\n",
		q.Dims(), q.Nodes(), len(mc.Copies))

	fmt.Println("   M   store&fwd   pipelined-CCC   speedup")
	for _, M := range []int{32, 64, 128, 256} {
		ecube, err := multipath.StrategyTemplates(multipath.NewDimOrder(q), q, demand, M, 0)
		if err != nil {
			log.Fatal(err)
		}
		sf, err := netsim.Simulate(ecube, netsim.StoreAndForward)
		if err != nil {
			log.Fatal(err)
		}
		msgs, err := traffic.MultiCopyCCCMessages(mc, n, perm, M)
		if err != nil {
			log.Fatal(err)
		}
		cc, err := netsim.Simulate(msgs, netsim.CutThrough)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d   %9d   %13d   %6.1fx\n", M, sf.Steps, cc.Steps,
			float64(sf.Steps)/float64(cc.Steps))
	}
	fmt.Println("\nStore-and-forward grows like distance×M; the split transfer grows")
	fmt.Println("like M/n per piece plus route length — the §7 wormhole speedup.")
}
