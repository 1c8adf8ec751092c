// Gate_attack demonstrates Observation #6: memory faults targeted at the
// MoE gate (router) layers alone change expert selections — and thereby
// the generated output — without touching a single expert weight. The
// paper flags this as both a reliability and a security concern.
//
//	go run ./examples/gate_attack
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/pretrained"
	"repro/internal/tasks"
)

func main() {
	log.SetFlags(0)

	vocab := tasks.GeneralVocab()
	cfg := model.MoEConfig(model.StandardConfig("moe-demo", vocab.Size(), numerics.BF16))
	m, err := model.Build(model.Spec{Config: cfg, Family: model.LlamaS, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s — %d params, top-%d of %d experts\n",
		cfg.Name, cfg.NumParams(), cfg.TopK, cfg.NumExperts)

	suite, err := pretrained.Suite("wmt16-like", 7, 8)
	if err != nil {
		log.Fatal(err)
	}

	res, err := core.New(m, suite, faults.Mem2Bit, 150, 9,
		core.WithFilter(faults.GateOnly), // routers only — the attack surface
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d gate-layer injections:\n", len(res.Trials))
	fmt.Printf("  expert selection changed: %5.1f%%\n", res.ExpertChangedRate()*100)
	fmt.Printf("  output changed:           %5.1f%%\n", res.OutputChangedRate()*100)
	fmt.Printf("  BLEU   normalized perf:   %.4f\n", res.Normalized(metrics.KindBLEU).Value)
	fmt.Printf("  chrF++ normalized perf:   %.4f\n", res.Normalized(metrics.KindChrF).Value)

	// Show one concrete trial where routing changed the output.
	for _, tr := range res.Trials {
		if tr.ExpertChanged && tr.Outcome.Changed {
			inst := suite.Instances[tr.Instance]
			base := res.Baseline.Instances[tr.Instance]
			inj, err := faults.New(m, tr.Site, len(inst.Prompt))
			if err != nil {
				log.Fatal(err)
			}
			faulty := core.RerunInstance(m, inj.Observers(), suite, &inst)
			fmt.Printf("\nexample (site %v):\n  fault-free: %s\n  faulty:     %s\n",
				tr.Site, base.Text, faulty)
			break
		}
	}
}
