// Quickstart: build a model, inject one memory fault and one
// computational fault, and inspect what they do to the output.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/pretrained"
)

func main() {
	log.SetFlags(0)

	// Load the trained translation model, built into the binary.
	loader := pretrained.NewLoader("")
	m, err := loader.Load("wmt-alma")
	if err != nil {
		log.Fatal(err)
	}
	task := pretrained.TranslationTask()
	suite := task.Suite(1, 1)
	inst := suite.Instances[0]

	fmt.Println("model:     ", m.Cfg.Name, "—", m.Cfg.NumParams(), "params,", m.Cfg.DType)
	fmt.Println("source:    ", suite.Vocab.DecodeAll(inst.Prompt[1:len(inst.Prompt)-1]))
	fmt.Println("reference: ", inst.Reference)

	// 1. Fault-free generation.
	clean := gen.Generate(m, inst.Prompt, gen.Defaults(inst.MaxNew))
	fmt.Println("fault-free:", suite.Vocab.Decode(clean.Tokens))

	// 2. A 2-bit memory fault: the exponent MSB (bit 14 of BF16) and one
	// lower bit of one weight of a middle block's up_proj flipped for one
	// run — the §3.2 protocol. The run's state reads the flipped weight;
	// the model itself is never touched.
	site := faults.Site{
		Fault: faults.Mem2Bit,
		Layer: model.LayerRef{Block: 1, Kind: model.KindUp, Expert: -1},
		Row:   20, Col: 20,
		Bits: []int{numerics.BF16.Bits() - 2, 5},
	}
	before, after, err := faults.FaultValue(m, site)
	if err != nil {
		log.Fatal(err)
	}
	inj, err := faults.New(m, site, len(inst.Prompt))
	if err != nil {
		log.Fatal(err)
	}
	st := m.NewState()
	st.Observers = inj.Observers()
	faulty := gen.GenerateFrom(m, st, st.Prefill(inst.Prompt), gen.Defaults(inst.MaxNew))
	fmt.Printf("\nmemory fault at %v: weight %.4g -> %.4g\n", site.Layer, before, after)
	fmt.Println("faulty:    ", suite.Vocab.Decode(faulty.Tokens))

	// 3. A transient computational fault in one neuron during the third
	// generated token.
	comp := faults.Site{
		Fault: faults.Comp2Bit,
		Layer: model.LayerRef{Block: 1, Kind: model.KindDown, Expert: -1},
		Col:   7, Bits: []int{14, 13}, GenIter: 2,
	}
	inj, err = faults.New(m, comp, len(inst.Prompt))
	if err != nil {
		log.Fatal(err)
	}
	st = m.NewState()
	st.Observers = inj.Observers()
	faulty = gen.GenerateFrom(m, st, st.Prefill(inst.Prompt), gen.Defaults(inst.MaxNew))
	fmt.Printf("\ncomputational fault %v (fired=%v)\n", comp, inj.Fired)
	fmt.Println("faulty:    ", suite.Vocab.Decode(faulty.Tokens))
}
