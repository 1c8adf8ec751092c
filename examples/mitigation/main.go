// Mitigation demonstrates the two defenses built on the study's
// findings: range restriction (squash the 1e30-scale values that
// exponent-MSB flips create — the dominant SDC source per Figs. 9-10)
// and ABFT weight checksums (detect resident memory faults, the worse
// fault class per Observation #1, before they silently corrupt outputs).
//
//	go run ./examples/mitigation
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/pretrained"
	"repro/internal/prng"
)

func main() {
	log.SetFlags(0)
	loader := pretrained.NewLoader("")
	m, err := loader.Load("math-qwens")
	if err != nil {
		log.Fatal(err)
	}
	mt := pretrained.MathTask()
	suite := mt.Suite(21, 8, true)

	// --- Defense 1: range restriction -------------------------------
	calib := mt.Suite(9001, 16, true) // held-out calibration prompts
	profile := mitigate.Calibrate(m.Clone(), calib, 0)
	fmt.Printf("calibrated %d layer ranges on %d held-out prompts\n\n", profile.Layers(), 16)

	plain, err := core.New(m, suite, faults.Mem2Bit, 200, 99).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	restrictor := mitigate.NewRestrictor(profile)
	protected, err := core.New(m, suite, faults.Mem2Bit, 200, 99,
		core.WithExtraHook(restrictor.Hook),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2bits-mem on GSM8k (200 injections):")
	fmt.Printf("  unprotected norm. accuracy: %.4f\n", plain.Normalized(metrics.KindAccuracy).Value)
	fmt.Printf("  range-restricted:           %.4f  (%d values clamped)\n\n",
		protected.Normalized(metrics.KindAccuracy).Value, restrictor.Clamped())

	// --- Defense 2: ABFT weight checksums ---------------------------
	wm := m.Clone()
	wc := mitigate.NewWeightChecksums(wm)
	sampler, err := faults.NewSampler(wm, nil)
	if err != nil {
		log.Fatal(err)
	}
	detected := 0
	const trials = 100
	src := prng.New(7)
	for i := 0; i < trials; i++ {
		site := sampler.Sample(src.Split(uint64(i)), faults.Mem2Bit, 1)
		inj, err := faults.Arm(wm, site, 0)
		if err != nil {
			log.Fatal(err)
		}
		if wc.Detects(wm, site.Layer, site.Col) {
			detected++
		}
		inj.Disarm()
	}
	fmt.Printf("weight-checksum scan: %d/%d memory faults detected and localized\n", detected, trials)
	fmt.Println("(detection lets a serving system reload weights instead of emitting SDCs)")
}
