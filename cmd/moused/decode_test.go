package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mouse/internal/workload"
)

// decodeInfer decodes one complete body with a pooled decoder, as
// readInfer does.
func decodeInfer(body []byte) (inferRequest, error) {
	d := decoders.Get().(*inferDecoder)
	defer decoders.Put(d)
	return d.decode(body)
}

// requestBody marshals n of the workload's samples the way clients
// (mouseload, perfbench) do.
func requestBody(tb testing.TB, name string, n int) []byte {
	tb.Helper()
	hb, err := workload.HotBatchByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(inferRequest{Workload: name, Samples: hb.Samples(n)})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sameSamples compares decoded batches, counting nil and empty slices
// as equal.
func sameSamples(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeInfer holds the one-pass decoder to encoding/json: for every
// body both reject it, or both accept it with equal values. The one
// intended difference is trailing data: a json.Decoder stops after the
// first value, while decodeInfer rejects non-space bytes after it, so
// such a body must decode like its first value alone.
//
// The bulk seed has perfbench's serve-bulk shape at 16 rows rather than
// 4096: the fuzzer minimizes every new input it keeps, and minimizing a
// mutated 532 KB body stalls a run for minutes. TestDecodeInferArena
// checks the full-size body against encoding/json.
func FuzzDecodeInfer(f *testing.F) {
	f.Add(requestBody(f, "bnn-hidden16", 16))
	f.Add(requestBody(f, "svm-adult", 8))
	for _, seed := range []string{
		`{"Samples":[[1,2]],"WORKLOAD":"svm-adult"}`,
		`{"samples":[[3]],"workload":"bnn-hidden16"}`,
		`{"ſamples":[[1]],"wor` + "K" + `load":"x"}`, // non-ASCII case folds of 's' and 'k'
		`{"\u0053amples":[[4]],"w\u006frkload":"svm-adult"}`,
		`{"workload":"své","samples":[[0]]}`,
		`{"workload":"a\"b\\c\/\b\f\n\r\t😀"}`,
		"{\"workload\":\"\xff\xfe\"}",
		`{"meta":{"trace":[1,{"x":null},"s",-1.5e+3,true,false],"y":{}},"samples":[[1]],"z":[]}`,
		`{"samples":null}`,
		`{"samples":[[1],null,[2,3]]}`,
		`{"samples":[[1,null,3]]}`,
		`{"samples":[[5,6,7]],"samples":[[1]],"samples":[[2,null,null],null]}`,
		`{"samples":[[1,2],[3]],"samples":[]}`,
		`{"workload":"a","workload":null}`,
		`{"samples":[[1.0]]}`,
		`{"samples":[[1e2]]}`,
		`{"samples":[[01]]}`,
		`{"samples":[[-0]]}`,
		`{"samples":[[-]]}`,
		`{"samples":[[9223372036854775807,-9223372036854775808]]}`,
		`{"samples":[[9223372036854775808]]}`,
		`{"samples":[[-9223372036854775809]]}`,
		`{"samples":[7]}`,
		`{"samples":[["1"]]}`,
		`{"samples":{"a":1}}`,
		`{"workload":5}`,
		`{"samples":[[1,]]}`,
		`{"samples":[[1]],}`,
		" \t\r\n{ \t\r\n\"workload\" \t\r\n: \t\r\n\"svm-adult\" \t\r\n, \"samples\" : [ [ 1 , 2 ] , [ ] ] } \t\r\n",
		`{"samples":[[1]]} trailing`,
		`null`,
		`null x`,
		`[]`,
		`{}`,
		``,
		`{"x":"\u12"}`,
		`{"x":"a` + "\x01" + `"}`,
		`{"deep":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"deep":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeInfer(body)
		var want inferRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		wantErr := dec.Decode(&want)
		if wantErr == nil && err != nil {
			end := dec.InputOffset()
			if len(bytes.TrimLeft(body[end:], " \t\r\n")) == 0 {
				t.Fatalf("encoding/json accepts the body, decodeInfer rejects it: %v", err)
			}
			got, err = decodeInfer(body[:end])
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeInfer error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got.Workload != want.Workload || !sameSamples(got.Samples, want.Samples) {
			t.Fatalf("decodeInfer = %q %v, encoding/json = %q %v", got.Workload, got.Samples, want.Workload, want.Samples)
		}
	})
}

// TestDecodeInferArena: a capacity-sized bulk request decodes as
// encoding/json decodes it, into capacity-clipped row views of one flat
// array, so decoding it allocates only that array, the row headers and
// the workload string.
func TestDecodeInferArena(t *testing.T) {
	body := requestBody(t, "bnn-hidden16", 4096)
	req, err := decodeInfer(body)
	if err != nil {
		t.Fatal(err)
	}
	var want inferRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if req.Workload != want.Workload || len(req.Samples) != 4096 || !sameSamples(req.Samples, want.Samples) {
		t.Fatalf("decodeInfer of the 4096-sample body differs from encoding/json")
	}
	for i, row := range req.Samples {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d, len %d", i, cap(row), len(row))
		}
		if i > 0 {
			prev := req.Samples[i-1]
			if reflect.ValueOf(prev).Pointer()+uintptr(len(prev)*strconv.IntSize/8) != reflect.ValueOf(row).Pointer() {
				t.Fatalf("row %d does not follow row %d in one arena", i, i-1)
			}
		}
	}
	d := new(inferDecoder)
	if allocs := testing.AllocsPerRun(10, func() { d.decode(body) }); allocs > 3 {
		t.Errorf("decoding a 4096-sample body allocates %v times, want at most 3", allocs)
	}
}

// BenchmarkDecodeInfer times the one-pass decoder against encoding/json
// on a capacity-sized bnn-hidden16 request and an 8-sample svm-adult
// one.
func BenchmarkDecodeInfer(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"bnn-hidden16", 4096}, {"svm-adult", 8}} {
		body := requestBody(b, c.name, c.n)
		b.Run(c.name+"/onepass", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeInfer(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req inferRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
