// Adaptive-sweep: the paper's headline result, live. Sweeps the number of
// failures f for the adaptive Byzantine Broadcast at fixed n and prints
// the word complexity next to an always-quadratic baseline, for both
// crash failures (the practical common case — flat O(n)) and worst-case
// Byzantine leaders (the O(n(f+1)) bound).
//
//	go run ./examples/adaptive-sweep
package main

import (
	"context"
	"fmt"
	"log"

	"adaptiveba"
	"adaptiveba/internal/harness"
)

func main() {
	const n = 41
	fmt.Printf("adaptive Byzantine Broadcast, n=%d (t=%d, fallback threshold f>%d)\n\n",
		n, (n-1)/2, (n-(n-1)/2-1)/2)
	fmt.Printf("%4s %16s %16s %18s\n", "f", "words (crash)", "words (worst)", "quadratic baseline")

	for _, f := range []int{0, 1, 2, 4, 6, 8, 10} {
		crash, err := adaptiveba.BroadcastContext(context.Background(), n, []byte("v"), adaptiveba.WithFaults(f))
		if err != nil {
			log.Fatal(err)
		}
		// The worst case needs protocol-aware Byzantine leaders; that
		// attack lives in the harness.
		worst, err := harness.Run(harness.Spec{
			Protocol: harness.ProtocolBB, N: n, F: f, Fault: harness.FaultSpam,
		})
		if err != nil {
			log.Fatal(err)
		}
		baseline, err := harness.Run(harness.Spec{
			Protocol: harness.ProtocolEchoBB, N: n, F: f,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d %16d %16d %18d\n", f, crash.Words, worst.Words, baseline.Words)
	}

	fmt.Println("\ncrash failures keep the cost flat at O(n); Byzantine leaders pay ~Θ(n)")
	fmt.Println("per failure (the O(n(f+1)) bound); the baseline pays Θ(n²) always.")
}
