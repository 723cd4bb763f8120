package sim_test

import (
	"fmt"
	"log"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
)

// ExampleRunner_Run executes a short operation stream on a 60 µW
// harvester and reports the EH-model accounting categories.
func ExampleRunner_Run() {
	cfg := mtj.ModernSTT()
	r := sim.NewRunner(energy.NewModel(cfg))

	ops := []energy.Op{{Kind: isa.KindAct, ActCols: 128}}
	for i := 0; i < 100; i++ {
		ops = append(ops,
			energy.Op{Kind: isa.KindPreset, ActivePairs: 128},
			energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 128})
	}
	h := power.NewHarvester(power.Constant{W: 60e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	res, err := r.Run(&sim.SliceStream{Ops: ops}, h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instructions=%d completed=%v\n", res.Instructions, res.Completed)
	fmt.Printf("dead and restore are zero without outages: %v\n",
		res.DeadEnergy == 0 && res.RestoreEnergy == 0 && res.Restarts == 0)
	// Output:
	// instructions=201 completed=true
	// dead and restore are zero without outages: true
}
