// Package cliflag holds the flag checks the command-line tools share.
package cliflag

import (
	"flag"
	"fmt"
	"math"
)

// CheckFinite returns an error naming the first float64 flag set in fs
// to NaN or an infinity. Call it right after fs.Parse: flag.Float64
// accepts "NaN" and "Inf", which no simulation parameter admits, and a
// NaN would otherwise fail every "> 0" test and silently take the
// flag's 0 = default meaning.
func CheckFinite(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		g, ok := f.Value.(flag.Getter)
		if !ok || err != nil {
			return
		}
		if v, ok := g.Get().(float64); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("-%s must be a finite number, got %v", f.Name, v)
		}
	})
	return err
}
