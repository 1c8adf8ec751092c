// Beam_tradeoff sweeps the beam count on the fine-tuned translation
// model under 2-bit computational faults, reproducing Figure 19's
// resilience-vs-runtime trade-off (Observation #9: beam search routes
// around corrupted tokens; beyond ~2 beams only the cost grows).
//
//	go run ./examples/beam_tradeoff
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/pretrained"
)

func main() {
	log.SetFlags(0)
	loader := pretrained.NewLoader("")
	m, err := loader.Load("wmt-alma")
	if err != nil {
		log.Fatal(err)
	}
	suite := pretrained.TranslationTask().Suite(5, 8)

	fmt.Println("beams  norm-BLEU  steps/trial  ms/trial")
	for _, beams := range []int{1, 2, 4, 6, 8} {
		start := time.Now()
		res, err := core.New(m, suite, faults.Comp2Bit, 120, 31,
			core.WithGen(gen.Settings{NumBeams: beams}),
		).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		ms := time.Since(start).Seconds() * 1000 / 120
		fmt.Printf("%5d  %9.4f  %11.1f  %8.2f\n",
			beams, res.Normalized(metrics.KindBLEU).Value, res.MeanSteps(), ms)
	}
	fmt.Println("\ngreedy = 1 beam; the resilience gain lands at 2 beams while the")
	fmt.Println("decode cost keeps rising — the paper's recommended setting is 2.")
}
