// Byzantine-faults: safety under active attack. Runs weak BA and strong
// BA against the adversary library — replayed stale traffic, a crashed
// sender, and maximal crash counts — and checks that agreement and
// validity hold every time.
//
//	go run ./examples/byzantine-faults
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"adaptiveba"
)

func main() {
	ctx := context.Background()
	check := func(name string, cond bool) {
		status := "ok"
		if !cond {
			status = "VIOLATED"
		}
		fmt.Printf("  %-58s %s\n", name, status)
		if !cond {
			log.Fatalf("property violated: %s", name)
		}
	}

	fmt.Println("weak BA, n=9, two replaying Byzantine processes:")
	inputs := make([][]byte, 9)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("proposal-%d", i))
	}
	res, err := adaptiveba.WeakAgreeContext(ctx, 9, inputs, nil,
		adaptiveba.WithFaults(2), adaptiveba.WithPattern(adaptiveba.FaultReplay), adaptiveba.WithSeed(99))
	if err != nil {
		log.Fatal(err)
	}
	check("all correct processes decided", res.AllDecided)
	check("agreement (identical decisions)", res.Agreement)
	check("decision is a real proposal or ⊥", res.Bottom || bytes.HasPrefix(res.Decision, []byte("proposal-")))

	fmt.Println("\nByzantine Broadcast, n=9, crashed sender:")
	res, err = adaptiveba.BroadcastContext(ctx, 9, []byte("never sent"),
		adaptiveba.WithFaults(1), adaptiveba.WithPattern(adaptiveba.FaultCrashLeader))
	if err != nil {
		log.Fatal(err)
	}
	check("all correct processes decided", res.AllDecided)
	check("agreement despite the faulty sender", res.Agreement)
	check("common decision is ⊥ (sender said nothing)", res.Bottom)

	fmt.Println("\nstrong BA, n=9, maximum f = t = 4 crashes, unanimous inputs:")
	bits := make([]bool, 9)
	for i := range bits {
		bits[i] = true
	}
	res, err = adaptiveba.StrongAgreeBinaryContext(ctx, 9, bits, adaptiveba.WithFaults(4))
	if err != nil {
		log.Fatal(err)
	}
	bit, ok := res.Bit()
	check("all correct processes decided", res.AllDecided)
	check("strong unanimity (decision = common input 1)", ok && bit)
	fmt.Printf("\n  the run needed the quadratic fallback on %d processes\n", res.FallbackProcesses)
	fmt.Println("\nall safety properties held under attack.")
}
