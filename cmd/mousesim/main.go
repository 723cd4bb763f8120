// mousesim runs a MOUSE program image on the bit-accurate functional
// simulator, optionally under a harvested power supply with unexpected
// outages, and reports the EH-model accounting. Before running it prints
// the worst-case-energy verdict (lint.Certify, as mousevet -cert) for
// the capacitor it runs on, and refuses a harvested run that verdict
// says cannot make forward progress.
//
// Usage:
//
//	mousesim [flags] prog.img
//
//	-config modern-stt|projected-stt|she   technology (default modern-stt)
//	-tiles N -rows N -cols N               machine geometry
//	-power W                               harvested power (0 = continuous)
//	-cap F                                 capacitor override (farads), for the verdict and the run
//	-dump tile:row0:row1:col               print a bit range after the run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/isa"
	"mouse/internal/lint"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mousesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mousesim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	config := fs.String("config", "modern-stt", "technology: modern-stt, projected-stt, she")
	tiles := fs.Int("tiles", 1, "number of tiles")
	rows := fs.Int("rows", 1024, "rows per tile")
	cols := fs.Int("cols", 16, "columns per tile")
	watts := fs.Float64("power", 0, "harvested power in watts (0 = continuous)")
	capF := fs.Float64("cap", 0, "capacitor override in farads (0 = technology default)")
	dump := fs.String("dump", "", "print bits after the run: tile:rowFirst:rowLast:col")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mousesim [flags] prog.img")
	}

	var cfg *mtj.Config
	switch *config {
	case "modern-stt":
		cfg = mtj.ModernSTT()
	case "projected-stt":
		cfg = mtj.ProjectedSTT()
	case "she":
		cfg = mtj.ProjectedSHE()
	default:
		return fmt.Errorf("unknown config %q", *config)
	}
	if *capF > 0 {
		cfg.CapC = *capF
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := isa.ReadImage(f)
	f.Close()
	if err != nil {
		return err
	}

	m := array.NewMachine(cfg, *tiles, *rows, *cols)
	c := controller.New(controller.ProgramStore(prog), m)
	runner := sim.NewMachineRunner(c)

	// Static forward-progress check before deployment (Section I's
	// non-termination hazard): every one-instruction checkpoint region,
	// restore included, must fit one discharge window of this capacitor.
	cert, err := lint.Certify(prog, lint.Options{
		Geometry: lint.Geometry{Tiles: *tiles, Rows: *rows, Cols: *cols},
		Config:   cfg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, verdict(cert))
	if !cert.Feasible && *watts > 0 {
		return fmt.Errorf("program cannot make forward progress on this energy buffer")
	}

	var h *power.Harvester
	if *watts > 0 {
		h = power.NewHarvester(power.Constant{W: *watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	}
	res, err := runner.Run(h)
	if err != nil {
		return err
	}

	b := res.Breakdown
	fmt.Fprintf(stdout, "config:        %s (%.1f MHz)\n", cfg.Name, cfg.Freq/1e6)
	fmt.Fprintf(stdout, "instructions:  %d (%d restarts)\n", b.Instructions, b.Restarts)
	fmt.Fprintf(stdout, "latency:       %.6g s (on %.6g s, charging %.6g s)\n", b.TotalLatency(), b.OnLatency, b.OffLatency)
	fmt.Fprintf(stdout, "energy:        %.6g J\n", b.TotalEnergy())
	fmt.Fprintf(stdout, "  compute      %.6g J\n", b.ComputeEnergy)
	fmt.Fprintf(stdout, "  backup       %.6g J (%.3f%%)\n", b.BackupEnergy, 100*b.Share(b.BackupEnergy))
	fmt.Fprintf(stdout, "  dead         %.6g J (%.3f%%)\n", b.DeadEnergy, 100*b.Share(b.DeadEnergy))
	fmt.Fprintf(stdout, "  restore      %.6g J (%.3f%%)\n", b.RestoreEnergy, 100*b.Share(b.RestoreEnergy))

	if *dump != "" {
		var tile, r0, r1, col int
		if _, err := fmt.Sscanf(strings.ReplaceAll(*dump, ":", " "), "%d %d %d %d", &tile, &r0, &r1, &col); err != nil {
			return fmt.Errorf("bad -dump spec %q: %v", *dump, err)
		}
		bits, err := m.ReadBits(tile, col, r0, 1, r1-r0+1)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tile %d col %d rows %d..%d:", tile, col, r0, r1)
		for _, bit := range bits {
			fmt.Fprintf(stdout, " %d", bit)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// verdict summarizes a certificate on one line.
func verdict(cert *lint.Certificate) string {
	v := "terminates"
	if !cert.Feasible {
		v = "NON-TERMINATING"
	}
	if cert.WorstRegion < 0 {
		return fmt.Sprintf("%s: window %.4g J, empty program", v, cert.WindowJ)
	}
	w := cert.Regions[cert.WorstRegion]
	return fmt.Sprintf("%s: window %.4g J, worst region [%d,%d) needs %.4g J (restore %.4g J), headroom %.2fx over %d regions",
		v, cert.WindowJ, w.Start, w.End, w.WCEJ, w.RestoreJ, w.Headroom, len(cert.Regions))
}
