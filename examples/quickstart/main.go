// Quickstart: broadcast a value to nine processes with the adaptive
// Byzantine Broadcast and print the paper's cost metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"adaptiveba"
)

func main() {
	ctx := context.Background()

	// A failure-free run: the adaptive protocol pays O(n) words.
	res, err := adaptiveba.BroadcastContext(ctx, 9, []byte("block #4921"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision:   %s\n", res.Decision)
	fmt.Printf("agreement:  %v, all decided: %v\n", res.Agreement, res.AllDecided)
	fmt.Printf("cost:       %d words in %d messages over %d rounds\n", res.Words, res.Messages, res.Ticks)

	// The same broadcast with two crashed processes: the vetting phases
	// wake up, costing ~O(n) extra words per failure — not O(n²).
	res2, err := adaptiveba.BroadcastContext(ctx, 9, []byte("block #4921"), adaptiveba.WithFaults(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith f=2 crashes: decision %q, %d words (was %d)\n", res2.Decision, res2.Words, res.Words)
}
