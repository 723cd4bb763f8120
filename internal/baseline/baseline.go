// Package baseline models the systems the paper compares MOUSE against
// (Section IX, Table IV and Fig. 9):
//
//   - SONIC [29], a software inference runtime on a TI MSP430FR5994
//     microcontroller powered by a Powercast RF harvester. We calibrate a
//     task-based intermittent execution model to SONIC's published
//     continuous-power latency and energy, then run it under the same
//     constant-power harvester model as MOUSE to produce its
//     latency-vs-power curve.
//   - CPU SVM and libSVM reference rows, which the paper reports under
//     continuous power on a Haswell server; these are carried as
//     reference constants (they have no intermittent behaviour).
package baseline

import (
	"fmt"

	"mouse/internal/power"
)

// SONIC is the calibrated task-based intermittent software baseline.
type SONIC struct {
	Name string

	// ContLatency and ContEnergy are the published continuous-power
	// numbers (Table IV).
	ContLatency float64 // seconds
	ContEnergy  float64 // joules

	// Cap, VOn and VOff describe the energy buffer: run from VOn down to
	// VOff, then recharge.
	Cap  float64
	VOn  float64
	VOff float64

	// TaskEnergy is the energy of one atomic task interval: progress is
	// lost back to the last completed task on every outage.
	TaskEnergy float64

	// RestoreEnergy is the per-reboot cost (restoring the task context
	// from FRAM).
	RestoreEnergy float64

	// BackupFrac is the fraction of each task's energy spent on
	// checkpointing its results (SONIC's redo-logging overhead is already
	// inside the continuous numbers; this models the *additional*
	// bookkeeping under intermittence).
	BackupFrac float64
}

// SONICMNIST returns the MNIST inference baseline (Table IV: 2.74 s,
// 27,000 µJ at continuous power).
func SONICMNIST() *SONIC {
	return &SONIC{
		Name:          "SONIC MNIST",
		ContLatency:   2.74,
		ContEnergy:    27000e-6,
		Cap:           100e-6,
		VOn:           2.4,
		VOff:          2.0,
		TaskEnergy:    10e-6,
		RestoreEnergy: 1e-6,
		BackupFrac:    0.05,
	}
}

// SONICHAR returns the HAR inference baseline (Table IV: 1.1 s,
// 12,500 µJ at continuous power).
func SONICHAR() *SONIC {
	return &SONIC{
		Name:          "SONIC HAR",
		ContLatency:   1.1,
		ContEnergy:    12500e-6,
		Cap:           100e-6,
		VOn:           2.4,
		VOff:          2.0,
		TaskEnergy:    10e-6,
		RestoreEnergy: 1e-6,
		BackupFrac:    0.05,
	}
}

// Result summarizes one intermittent run of the baseline.
type Result struct {
	Latency   float64 // seconds, including charging time
	OnLatency float64
	Energy    float64 // joules, including dead/backup/restore overheads
	Restarts  int
}

// devicePower is the baseline's draw while running.
func (s *SONIC) devicePower() float64 { return s.ContEnergy / s.ContLatency }

// Run executes one inference under the given harvested power.
func (s *SONIC) Run(src power.Source) (Result, error) {
	h := power.NewHarvester(src, s.Cap, s.VOff, s.VOn)
	var res Result

	p := s.devicePower()
	taskTime := s.TaskEnergy / p
	taskCost := s.TaskEnergy * (1 + s.BackupFrac)
	nTasks := int(s.ContEnergy/s.TaskEnergy) + 1
	window := power.EnergyAboveOf(s.Cap, s.VOn, s.VOff)
	if taskCost > window {
		return res, fmt.Errorf("baseline: %s cannot complete a task within one buffer discharge", s.Name)
	}

	const maxWait = 7 * 24 * 3600
	off, err := h.ChargeUntilOn(maxWait)
	if err != nil {
		return res, err
	}
	res.Latency += off

	for done := 0; done < nTasks; {
		frac := h.Draw(taskTime, taskCost)
		res.Energy += taskCost * frac
		res.Latency += taskTime * frac
		res.OnLatency += taskTime * frac
		if frac >= 1 {
			done++
			continue
		}
		// Outage mid-task: the partial task is lost; recharge, pay the
		// restore cost, and redo it.
		res.Restarts++
		off, err := h.ChargeUntilOn(maxWait)
		if err != nil {
			return res, err
		}
		res.Latency += off
		h.Draw(taskTime*0.1, s.RestoreEnergy)
		res.Energy += s.RestoreEnergy
		res.Latency += taskTime * 0.1
		res.OnLatency += taskTime * 0.1
	}
	return res, nil
}

// ReferenceRow is a static comparison row of Table IV.
type ReferenceRow struct {
	System    string
	Benchmark string
	LatencyUS float64
	EnergyUJ  float64
	NumSV     int
	Accuracy  float64
}

// CPUReference returns the paper's CPU-SVM rows (Intel Haswell
// E5-2680v3, idle-power accounting).
func CPUReference() []ReferenceRow {
	return []ReferenceRow{
		{System: "SVM (CPU)", Benchmark: "MNIST", LatencyUS: 169824, EnergyUJ: 5094702, NumSV: 11813, Accuracy: 97.55},
		{System: "SVM (CPU)", Benchmark: "MNIST (Binarized)", LatencyUS: 192370, EnergyUJ: 5771085, NumSV: 12214, Accuracy: 97.37},
		{System: "SVM (CPU)", Benchmark: "HAR (integer)", LatencyUS: 127494, EnergyUJ: 3824822, NumSV: 2809, Accuracy: 95.96},
		{System: "SVM (CPU)", Benchmark: "ADULT", LatencyUS: 4368, EnergyUJ: 131052, NumSV: 1909, Accuracy: 76.12},
	}
}

// LibSVMReference returns the paper's libSVM rows.
func LibSVMReference() []ReferenceRow {
	return []ReferenceRow{
		{System: "libSVM", Benchmark: "MNIST", LatencyUS: 7830, EnergyUJ: 234900, NumSV: 8652, Accuracy: 98.05},
		{System: "libSVM", Benchmark: "MNIST (Binarized)", LatencyUS: 19037, EnergyUJ: 571116, NumSV: 23672, Accuracy: 92.49},
		{System: "libSVM", Benchmark: "HAR (integer)", LatencyUS: 1701, EnergyUJ: 51042, NumSV: 2632, Accuracy: 93.69},
		{System: "libSVM", Benchmark: "ADULT", LatencyUS: 379, EnergyUJ: 11370, NumSV: 15792, Accuracy: 78.62},
	}
}

// SONICReference returns the paper's SONIC rows (continuous power).
func SONICReference() []ReferenceRow {
	return []ReferenceRow{
		{System: "SONIC", Benchmark: "MNIST", LatencyUS: 2740000, EnergyUJ: 27000, Accuracy: 99},
		{System: "SONIC", Benchmark: "HAR", LatencyUS: 1100000, EnergyUJ: 12500, Accuracy: 88},
	}
}
