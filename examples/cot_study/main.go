// Cot_study contrasts Chain-of-Thought and direct-answer prompting on
// the arithmetic task under fault injection (Observation #10), and shows
// a recovery case: a corrupted reasoning token that the model overrides
// to still produce the right answer.
//
//	go run ./examples/cot_study
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/outcome"
	"repro/internal/pretrained"
)

func main() {
	log.SetFlags(0)
	loader := pretrained.NewLoader("")
	m, err := loader.Load("math-qwens")
	if err != nil {
		log.Fatal(err)
	}
	mt := pretrained.MathTask()

	fmt.Println("mode    fault       norm-accuracy")
	for _, mode := range []struct {
		name string
		cot  bool
	}{{"CoT", true}, {"direct", false}} {
		suite := mt.Suite(11, 8, mode.cot)
		for _, fm := range []faults.Model{faults.Comp2Bit, faults.Mem2Bit} {
			// The paper injects computational faults only into the
			// reasoning-token iterations when CoT is on (§4.3.2).
			res, err := core.New(m, suite, fm, 160, 77,
				core.WithReasoningOnly(mode.cot && fm == faults.Comp2Bit),
			).Run(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-7s %-11v %.4f\n", mode.name, fm, res.Normalized(metrics.KindAccuracy).Value)
		}
	}

	// Hunt for a recovery example: the chain changed but the final answer
	// survived (Masked despite Changed).
	suite := mt.Suite(11, 8, true)
	res, err := core.New(m, suite, faults.Comp2Bit, 400, 13,
		core.WithReasoningOnly(true),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range res.Trials {
		if tr.Outcome.Class == outcome.Masked && tr.Outcome.Changed {
			inst := suite.Instances[tr.Instance]
			base := res.Baseline.Instances[tr.Instance]
			inj, err := faults.New(m, tr.Site, len(inst.Prompt))
			if err != nil {
				log.Fatal(err)
			}
			faulty := core.RerunInstance(m, inj.Observers(), suite, &inst)
			fmt.Printf("\nrecovery example (site %v):\n", tr.Site)
			fmt.Printf("  question:   %s\n", suite.Vocab.DecodeAll(inst.Prompt[1:]))
			fmt.Printf("  fault-free: %s\n", base.Text)
			fmt.Printf("  faulty:     %s\n", faulty)
			fmt.Println("  the chain diverged, yet the final answer is still correct —")
			fmt.Println("  the model re-derived it from the operands (Obs #10).")
			return
		}
	}
	fmt.Println("\nno recovery example found at this trial budget; raise Trials")
}
