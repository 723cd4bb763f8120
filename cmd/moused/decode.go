package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// inferDecoder decodes a /v1/infer body in one pass over its bytes.
//
// It accepts exactly the bodies json.Unmarshal accepts into an
// inferRequest, with the same result: whitespace anywhere, keys matched
// case-insensitively, unknown fields of any type skipped, null for
// "workload" (no change), "samples" (nil), a row (nil) or a feature
// (keeps the value an earlier "samples" array of the same body left at
// that index, as encoding/json's slice reuse does; 0 otherwise), and
// integers only: floats, exponents, leading zeros and values that
// overflow int are rejected. Unlike a json.Decoder it also rejects
// non-space bytes after the request object.
//
// Every feature is appended to one flat arena and Samples hands back
// row views into it, so a 4096-sample request costs one allocation for
// its values and one for its row headers. The decoder itself (body
// bytes and row bounds) is pooled; the arena never is, because a
// cancelled Infer returns while a device may still be reading its rows.
type inferDecoder struct {
	buf   []byte // body bytes, reused across requests
	spans []span // row bounds of the last "samples" value, reused

	b        []byte // the body being decoded
	pos      int
	flat     []int
	rows     int  // visible rows; spans[rows:] are rows a longer earlier "samples" left behind
	nilRows  bool // "samples" was absent or null
	workload string
}

// span locates one row in the arena: flat[start:start+n], with
// flat[start+n:start+held] the values an earlier, longer row at the same
// index left behind. start < 0 is a nil row.
type span struct{ start, n, held int }

var decoders = sync.Pool{New: func() any { return new(inferDecoder) }}

// safeDigits is the most decimal digits that cannot overflow int: 18,
// or 9 where int has 32 bits.
const safeDigits = strconv.IntSize * 9 / 32

// maxNestingDepth is encoding/json's limit on open arrays and objects,
// counting the request object itself.
const maxNestingDepth = 10000

// readInfer reads r's body whole, under the maxInferBody limit, and
// decodes it.
func readInfer(w http.ResponseWriter, r *http.Request) (inferRequest, error) {
	d := decoders.Get().(*inferDecoder)
	defer decoders.Put(d)
	body, err := d.read(http.MaxBytesReader(w, r.Body, maxInferBody), r.ContentLength)
	if err != nil {
		return inferRequest{}, err
	}
	return d.decode(body)
}

// read reads r to EOF into the pooled buffer, presized from the
// request's Content-Length when that is within the limit (one byte
// over, so EOF arrives without a final grow).
func (d *inferDecoder) read(r io.Reader, size int64) ([]byte, error) {
	buf := d.buf[:0]
	if size > 0 && size <= maxInferBody && int(size) >= cap(buf) {
		buf = make([]byte, 0, size+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(512, len(buf)))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			d.buf = buf
			if err == io.EOF {
				return buf, nil
			}
			return nil, err
		}
	}
}

// decode parses body into a request. The result shares no memory with
// the decoder or body.
func (d *inferDecoder) decode(body []byte) (inferRequest, error) {
	d.b, d.pos = body, 0
	d.flat, d.rows, d.nilRows, d.workload = nil, 0, true, ""
	d.spans = d.spans[:0]
	defer func() { d.b, d.flat = nil, nil }()

	d.space()
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return inferRequest{}, err
		}
	case '{':
		if err := d.object(); err != nil {
			return inferRequest{}, err
		}
	default:
		return inferRequest{}, d.syntax("a request object")
	}
	d.space()
	if d.pos < len(d.b) {
		return inferRequest{}, fmt.Errorf("invalid character %q after the request object at offset %d", d.b[d.pos], d.pos)
	}

	req := inferRequest{Workload: d.workload}
	if !d.nilRows {
		req.Samples = make([][]int, d.rows)
		for i, s := range d.spans[:d.rows] {
			if s.start >= 0 {
				req.Samples[i] = d.flat[s.start : s.start+s.n : s.start+s.n]
			}
		}
	}
	return req, nil
}

// peek returns the byte at the cursor, or 0 at the end of the body.
func (d *inferDecoder) peek() byte {
	if d.pos < len(d.b) {
		return d.b[d.pos]
	}
	return 0
}

func (d *inferDecoder) space() {
	for d.pos < len(d.b) && isSpace(d.b[d.pos]) {
		d.pos++
	}
}

func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// syntax reports the byte at the cursor where want was expected.
func (d *inferDecoder) syntax(want string) error {
	if d.pos >= len(d.b) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.b[d.pos], d.pos, want)
}

func (d *inferDecoder) literal(word string) error {
	if !bytes.HasPrefix(d.b[d.pos:], []byte(word)) {
		return d.syntax(word)
	}
	d.pos += len(word)
	return nil
}

// object parses the request object; the cursor is on its '{'.
func (d *inferDecoder) object() error {
	d.pos++
	d.space()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("a field name")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.syntax("':' after a field name")
		}
		d.pos++
		d.space()
		switch {
		case bytes.EqualFold(key, []byte("samples")):
			err = d.samples()
		case bytes.EqualFold(key, []byte("workload")):
			err = d.workloadValue()
		default:
			err = d.skip(2)
		}
		if err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("',' or '}' after a field")
		}
	}
}

// str parses the string at the cursor and returns its contents. A
// string that is plain ASCII without escapes is returned as a view of
// the body; any other is unquoted by encoding/json, which also repairs
// invalid UTF-8 the way it does for every string it decodes.
func (d *inferDecoder) str() ([]byte, error) {
	start := d.pos
	plain, err := d.skipString()
	if err != nil {
		return nil, err
	}
	if plain {
		return d.b[start+1 : d.pos-1], nil
	}
	var s string
	if err := json.Unmarshal(d.b[start:d.pos], &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

func (d *inferDecoder) workloadValue() error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		d.workload = string(s)
		return err
	case 'n':
		return d.literal("null")
	}
	return fmt.Errorf("workload at offset %d is not a string", d.pos)
}

// samples parses the "samples" value: null or an array of rows. Row i
// is decoded over the row an earlier "samples" value left at index i,
// so a null feature reads what encoding/json would have kept there.
func (d *inferDecoder) samples() error {
	switch d.peek() {
	case 'n':
		d.rows, d.nilRows, d.spans = 0, true, d.spans[:0]
		return d.literal("null")
	case '[':
	default:
		return fmt.Errorf("samples at offset %d is not an array of rows", d.pos)
	}
	d.pos++
	if d.flat == nil {
		// Every feature takes a digit and a ',' or ']', so half the
		// remaining bytes bounds the arena of a single "samples" value.
		d.flat = make([]int, 0, (len(d.b)-d.pos)/2)
	}
	d.space()
	n := 0
	if d.peek() == ']' {
		d.pos++
		d.spans = d.spans[:0] // encoding/json makes a fresh empty slice
	} else {
		for {
			var old span
			if n < len(d.spans) {
				old = d.spans[n]
			}
			row, err := d.row(old)
			if err != nil {
				return err
			}
			if n < len(d.spans) {
				d.spans[n] = row
			} else {
				d.spans = append(d.spans, row)
			}
			n++
			d.space()
			if c := d.peek(); c == ']' {
				d.pos++
				break
			} else if c != ',' {
				return d.syntax("',' or ']' after a sample")
			}
			d.pos++
			d.space()
		}
	}
	d.rows, d.nilRows = n, false
	return nil
}

// row parses one sample, null or an array of integers, appending its
// features to the arena; old is the row an earlier "samples" value left
// at this index.
func (d *inferDecoder) row(old span) (span, error) {
	switch d.peek() {
	case 'n':
		return span{start: -1}, d.literal("null")
	case '[':
	default:
		return span{}, fmt.Errorf("sample at offset %d is not an array of integers", d.pos)
	}
	d.pos++
	start := len(d.flat)
	d.space()
	if d.peek() == ']' {
		d.pos++
		return span{start: start}, nil
	}
	// The loop keeps the cursor and arena in locals and parses the common
	// feature, a non-negative integer too short to overflow, inline;
	// feature takes every other.
	b, i, flat := d.b, d.pos, d.flat
	for j := 0; ; j++ {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		k, v := i, 0
		for k < len(b) && b[k]-'0' <= 9 {
			v = v*10 + int(b[k]-'0')
			k++
		}
		if nd := k - i; nd > 0 && nd <= safeDigits && (nd == 1 || b[i] != '0') &&
			(k == len(b) || b[k] != '.' && b[k]|0x20 != 'e') {
			flat = append(flat, v)
			i = k
		} else {
			d.pos, d.flat = i, flat
			if err := d.feature(j, old); err != nil {
				return span{}, err
			}
			i, flat = d.pos, d.flat
		}
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i < len(b) && b[i] == ',' {
			i++
			continue
		}
		d.pos, d.flat = i, flat
		if i < len(b) && b[i] == ']' {
			d.pos++
			break
		}
		return span{}, d.syntax("',' or ']' after a feature")
	}
	n := len(d.flat) - start
	if old.held <= n {
		return span{start, n, n}, nil
	}
	d.flat = append(d.flat, d.flat[old.start+n:old.start+old.held]...)
	return span{start, n, old.held}, nil
}

// feature appends the feature at the cursor: null keeps the value old
// held at index j (0 if none), anything else must be an int.
func (d *inferDecoder) feature(j int, old span) error {
	if d.peek() == 'n' {
		v := 0
		if j < old.held {
			v = d.flat[old.start+j]
		}
		d.flat = append(d.flat, v)
		return d.literal("null")
	}
	v, err := d.integer()
	d.flat = append(d.flat, v)
	return err
}

// integer parses the JSON number at the cursor as encoding/json does
// for an int: a float, an exponent or an overflow is an error.
func (d *inferDecoder) integer() (int, error) {
	start := d.pos
	if err := d.skipNumber(); err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(d.b[start:d.pos]), 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf("feature at offset %d is not an int: %w", start, err)
	}
	return int(v), nil
}

// skip validates and steps over any JSON value; depth counts the arrays
// and objects open once this value is (the request object is 1).
func (d *inferDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth > maxNestingDepth {
			return fmt.Errorf("value at offset %d exceeds the nesting limit of %d", d.pos, maxNestingDepth)
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		d.pos++
		d.space()
		if d.peek() == end {
			d.pos++
			return nil
		}
		for {
			if c == '{' {
				if d.peek() != '"' {
					return d.syntax("a field name")
				}
				if _, err := d.skipString(); err != nil {
					return err
				}
				d.space()
				if d.peek() != ':' {
					return d.syntax("':' after a field name")
				}
				d.pos++
				d.space()
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.space()
			switch d.peek() {
			case ',':
				d.pos++
				d.space()
			case end:
				d.pos++
				return nil
			default:
				return d.syntax(fmt.Sprintf("',' or '%c'", end))
			}
		}
	case c == '"':
		_, err := d.skipString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || (c >= '0' && c <= '9'):
		return d.skipNumber()
	}
	return d.syntax("a value")
}

// skipString validates and steps over the string at the cursor, and
// reports whether it is plain: ASCII with no escapes.
func (d *inferDecoder) skipString() (plain bool, err error) {
	b := d.b
	plain = true
	for i := d.pos + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			return plain, nil
		case c < 0x20:
			d.pos = i
			return false, d.syntax("a string character")
		case c == '\\':
			plain = false
			switch next := i + 1; {
			case next >= len(b):
				i = next
			case strings.IndexByte(`"\/bfnrt`, b[next]) >= 0:
				i += 2
			case b[next] == 'u' && i+6 <= len(b) && isHex(b[i+2]) && isHex(b[i+3]) && isHex(b[i+4]) && isHex(b[i+5]):
				i += 6
			default:
				d.pos = i
				return false, fmt.Errorf("invalid escape in string at offset %d", i)
			}
		default:
			if c >= 0x80 {
				plain = false
			}
			i++
		}
	}
	d.pos = len(b)
	return false, d.syntax("the end of a string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipNumber validates and steps over the JSON number at the cursor.
func (d *inferDecoder) skipNumber() error {
	b, i := d.b, d.pos
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.pos = i
		return d.syntax("a digit")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			return d.syntax("a digit after '.'")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return d.syntax("an exponent digit")
		}
	}
	d.pos = i
	return nil
}
