package cliflag

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestCheckFinite(t *testing.T) {
	for _, c := range []struct {
		args []string
		bad  string // flag the error must name; "" = no error
	}{
		{nil, ""},
		{[]string{"-power", "0", "-cap", "1e-6"}, ""},
		{[]string{"-power", "-1e-3"}, ""}, // range checks stay with the tool
		{[]string{"-power", "NaN"}, "-power"},
		{[]string{"-cap", "+Inf"}, "-cap"},
		{[]string{"-cap", "-Inf"}, "-cap"},
		{[]string{"-n", "3", "-power", "1", "-cap", "inf"}, "-cap"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Float64("power", 0, "")
		fs.Float64("cap", 0, "")
		fs.Int("n", 0, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: parse: %v", c.args, err)
		}
		err := CheckFinite(fs)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.args, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%v: got %v, want an error naming %s", c.args, err, c.bad)
		}
	}
}
