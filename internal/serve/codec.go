package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync"
)

// The serving hot paths — the /v1/predict request and response and the
// stream's emit_voltages line — are read and written by the code in this
// file instead of encoding/json. Each writes exactly the bytes encoding/json
// would write and accepts exactly the inputs it would accept with the same
// result; encoding/json stays the fallback for every input the fixed-schema
// decoder does not take, and the tests' oracle.

// appendFloat appends f as encoding/json encodes a float64: the shortest
// decimal that reads back as f, in %f layout for 1e-6 ≤ |f| < 1e21 and in
// %e layout with a cleaned-up exponent outside it. f must be finite.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < 1e21 {
		if f < 0 {
			b = append(b, '-')
		}
		d, k := shortest(math.Float64bits(abs))
		return appendDecimalF(b, d, k)
	}
	// 0 and the 'e' range take encoding/json's own route.
	fmt := byte('f')
	if abs != 0 {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, f, fmt, -1, 64)
	if fmt == 'e' {
		// clean up e-09 to e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// shortest is the Schubfach core (R. Giulietti, "The Schubfach way to render
// doubles", 2020): for the positive normal double with bit pattern u it
// returns the decimal d·10^k with the fewest significant digits inside the
// double's rounding interval, the one closest to it among those, ties to an
// even last digit — the digits strconv.AppendFloat(…, -1, 64) prints.
//
// The double is c·2^q. Its rounding interval R has bounds (4c−2)/4·2^q (or
// (4c−1)/4·2^q when c = 2^52, where the spacing below halves) and
// (4c+2)/4·2^q, closed when c is even. With k the largest integer with
// 10^k ≤ the interval's length, R holds one or two multiples of 10^k and
// at most one of 10^(k+1): vb, vbl and vbr are the double and R's bounds
// times 4·10^−k, rounded to odd so that comparisons against multiples of 4
// stay exact. The JDK's Double.toString tries 10^(k+1) only when s ≥ 100,
// to keep two digits; strconv keeps one, so the guard is dropped here (it
// only ever fires on subnormals, see DESIGN.md).
func shortest(u uint64) (d uint64, k int) {
	c := u&(1<<52-1) | 1<<52
	q := int(u>>52) - 1075
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != 1<<52 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	g := &pow10Table[k-pow10MinK]
	h := q + g.e + 1
	vb := rop(g.hi, g.lo, cb<<h)
	vbl := rop(g.hi, g.lo, cbl<<h)
	vbr := rop(g.hi, g.lo, cbr<<h)

	s := vb >> 2
	// One digit fewer: R is shorter than 10^(k+1), so at most one of the two
	// multiples of 10^(k+1) around v lies in it.
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// s·10^k and (s+1)·10^k: at least one lies in R.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both do: the closer one, ties to even.
	cmp := int64(vb - (s+t)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns cp·(hi·2^64 + lo) / 2^128 rounded to odd: the integer part,
// with its lowest bit set when the next 64 bits of fraction are not all
// zero. The bits below those are dropped: they hold g's rounding error,
// under 2^−68 for cp < 2^60, while a true fraction in the %f range is at
// least 2^−50 (or 1/5^5 for k > 0), so the truncated product is an integer
// exactly when the exact one is, with the same integer part.
func rop(hi, lo, cp uint64) uint64 {
	x1, _ := bits.Mul64(lo, cp)
	y1, y0 := bits.Mul64(hi, cp)
	z, carry := bits.Add64(y0, x1, 0)
	v := y1 + carry
	if z != 0 {
		v |= 1
	}
	return v
}

// flog10pow2 is ⌊log10(2^q)⌋ and flog10ThreeQuartersPow2 is ⌊log10(¾·2^q)⌋,
// both exact over the exponents of the %f range (the JDK's constants;
// TestFloorLog10 checks them against exact arithmetic).
func flog10pow2(q int) int { return int(int64(q) * 661971961083 >> 41) }

func flog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661971961083 - 274743187321) >> 41)
}

// pow10Entry holds 10^−k as a 128-bit significand g = hi·2^64 + lo in
// [2^127, 2^128), rounded up, and e = ⌊log2 10^−k⌋: 10^−k ≈ g·2^(e−127).
type pow10Entry struct {
	hi, lo uint64
	e      int
}

// Doubles in [1e-6, 1e21) have q in [−72, 17], so k = ⌊log10 of the
// rounding interval's length⌋ lies in [−22, 5].
const (
	pow10MinK = -22
	pow10MaxK = 5
)

var pow10Table = buildPow10Table()

// buildPow10Table computes g = ⌊10^−k·2^(127−e)⌋ + 1 for every k in
// [pow10MinK, pow10MaxK] with exact integer arithmetic: 10^n for n ≥ 0 is a
// 128-bit product of tens shifted up to the top bit; 10^−n is 2^(127−e)
// divided by 10^n in three 64-bit long-division steps.
func buildPow10Table() [pow10MaxK - pow10MinK + 1]pow10Entry {
	var t [pow10MaxK - pow10MinK + 1]pow10Entry
	for k := pow10MinK; k <= pow10MaxK; k++ {
		var hi, lo uint64
		var e int
		if n := -k; n >= 0 {
			lo = 1
			for i := 0; i < n; i++ {
				var c uint64
				c, lo = bits.Mul64(lo, 10)
				hi = hi*10 + c
			}
			e = bits.Len64(lo) - 1
			if hi != 0 {
				e = 64 + bits.Len64(hi) - 1
			}
			if sh := uint(127 - e); sh >= 64 {
				hi, lo = lo<<(sh-64), 0
			} else if sh > 0 {
				hi, lo = hi<<sh|lo>>(64-sh), lo<<sh
			}
		} else {
			d := uint64(1)
			for i := 0; i < k; i++ {
				d *= 10
			}
			// e = ⌊log2 10^−k⌋ = −⌈log2 10^k⌉, and 2^(127−e) = 2^(128+j)
			// with 2^j < 10^k < 2^(j+1): dividend words (2^j, 0, 0).
			e = -bits.Len64(d)
			_, r := bits.Div64(0, 1<<uint(-e-1), d)
			hi, r = bits.Div64(r, 0, d)
			lo, _ = bits.Div64(r, 0, d)
		}
		// Round up: g strictly exceeds 10^−k·2^(127−e).
		var c uint64
		lo, c = bits.Add64(lo, 1, 0)
		hi += c
		t[k-pow10MinK] = pow10Entry{hi: hi, lo: lo, e: e}
	}
	return t
}

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendDecimalF appends d·10^k (d > 0) in strconv's shortest %f layout:
// no exponent, no trailing zeros after the point, a leading "0." below 1.
func appendDecimalF(b []byte, d uint64, k int) []byte {
	for d%10 == 0 {
		d /= 10
		k++
	}
	var buf [20]byte
	i := len(buf)
	for d >= 100 {
		r := d % 100
		d /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if d >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*d], digitPairs[2*d+1]
	} else {
		i--
		buf[i] = byte('0' + d)
	}
	digits := buf[i:]
	n := len(digits)
	switch dp := n + k; {
	case dp <= 0:
		b = append(b, '0', '.')
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	case dp < n:
		b = append(b, digits[:dp]...)
		b = append(b, '.')
		return append(b, digits[dp:]...)
	default:
		b = append(b, digits...)
		for ; dp > n; dp-- {
			b = append(b, '0')
		}
		return b
	}
}

// appendFloats appends v, which is not nil, as encoding/json encodes a
// []float64.
func appendFloats(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, ']')
}

// predictPrefix is the fixed head of a tenant generation's /v1/predict
// answer, everything before the voltages. It comes from json.Marshal so the
// tenant id is escaped as encoding/json escapes it.
func predictPrefix(tenant string, gen uint64, blocks int) []byte {
	b, err := json.Marshal(predictResponse{Tenant: tenant, ModelGeneration: gen, Blocks: blocks})
	if err != nil {
		// Unreachable: a string and two integers always marshal.
		panic(err)
	}
	return b[:len(b)-len("null}")]
}

// appendPredictBody appends the /v1/predict answer json.Encoder writes for
// a predictResponse with the given prefix and voltage rows. The handler's
// rows and each row are never nil, so neither is written as null.
func appendPredictBody(b, prefix []byte, rows [][]float64) []byte {
	b = append(b, prefix...)
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloats(b, row)
	}
	return append(b, ']', '}', '\n')
}

// appendStreamVoltages appends the NDJSON line json.Encoder writes for
// streamVoltages{cycle, v}.
func appendStreamVoltages(b []byte, cycle int, v []float64) []byte {
	b = append(b, `{"cycle":`...)
	b = strconv.AppendInt(b, int64(cycle), 10)
	b = append(b, `,"voltages":`...)
	b = appendFloats(b, v)
	return append(b, '}', '\n')
}

// finite reports whether every value of v is a finite number, the only
// values JSON can carry.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// codecBuf is the pooled per-request state of /v1/predict: the body read,
// then the answer written, and the decoded readings.
type codecBuf struct {
	b    []byte
	vals []float64   // readings, row after row
	ends []int       // end of each row in vals
	rows [][]float64 // views into vals
}

var codecPool = sync.Pool{New: func() any {
	return &codecBuf{
		b:    make([]byte, 0, 4096),
		vals: make([]float64, 0, 64),
		ends: make([]int, 0, 4),
		rows: make([][]float64, 0, 4),
	}
}}

// maxPooledBytes bounds the buffers the pool keeps, so one huge request does
// not pin its body in memory for the life of the process.
const maxPooledBytes = 1 << 20

func getCodecBuf() *codecBuf { return codecPool.Get().(*codecBuf) }

func putCodecBuf(cb *codecBuf) {
	if cap(cb.b) > maxPooledBytes || 8*cap(cb.vals) > maxPooledBytes {
		return
	}
	codecPool.Put(cb)
}

// predictHead opens every body parsePredict takes.
const predictHead = `{"readings":[`

// decodePredict reads a /v1/predict body from r (the request's
// MaxBytesReader) and returns its tenant field and reading vectors, exactly
// as json.NewDecoder(r).Decode(&predictRequest{}) would: the same values,
// and on failure the same error. The rows live in cb until it is reused.
//
// A compact body {"readings":[[…],…]} of numbers only, the shape clients
// send, is read up to its closing brace and taken by the fixed-schema
// parser; the bytes after it stay unread, as json.Decoder leaves them.
// Reading stops as soon as the body strays from that shape, and every other
// body (whitespace, a tenant field, null, another key or key case, an
// escape, a number ParseFloat rejects, a read error such as a body over the
// limit) is decoded by encoding/json from the bytes read followed by the
// rest of r.
func decodePredict(r io.Reader, cb *codecBuf) (string, [][]float64, error) {
	body, rerr := readPredict(r, cb.b[:0])
	cb.b = body
	if rerr == nil || rerr == io.EOF {
		if rows, ok := cb.parsePredict(body); ok {
			return "", rows, nil
		}
	}
	rest := r
	if rerr != nil {
		rest = errReader{rerr}
	}
	var req predictRequest
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(body), rest)).Decode(&req); err != nil {
		return "", nil, err
	}
	var rows [][]float64
	if req.Readings != nil {
		rows = make([][]float64, len(req.Readings))
		for i, rv := range req.Readings {
			rows[i] = toFloats(rv)
		}
	}
	return req.Tenant, rows, nil
}

// readPredict appends r's bytes to b until a read returns an error (io.EOF
// included) or the bytes read can no longer be an unfinished compact
// readings body: they stray from predictHead, or a byte after it is not one
// of a number's, a comma or a bracket. The closing brace is such a byte.
func readPredict(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			return b, err
		}
		if n > 0 && !openBody(b, len(b)-n) {
			return b, nil
		}
	}
}

// openBody reports whether b, the bytes read so far with b[from:] the ones
// just read, can be the start of a compact readings body that has not
// ended yet.
func openBody(b []byte, from int) bool {
	h := min(len(b), len(predictHead))
	if string(b[:h]) != predictHead[:h] {
		return false
	}
	for _, c := range b[max(from, h):] {
		if !('0' <= c && c <= '9' || c == ',' || c == '[' || c == ']' ||
			c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E') {
			return false
		}
	}
	return true
}

// errReader returns its error on every read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parsePredict is decodePredict's fixed-schema parser. It takes b when b
// opens with a compact object {"readings":[[…],…]}: no whitespace, no other
// member, at least one row, and every row a non-empty list of JSON numbers.
// Bytes after the object are ignored, as json.Decoder ignores them. It
// reports false for anything else, leaving the body to encoding/json.
func (cb *codecBuf) parsePredict(b []byte) ([][]float64, bool) {
	if len(b) < len(predictHead) || string(b[:len(predictHead)]) != predictHead {
		return nil, false
	}
	cb.vals, cb.ends = cb.vals[:0], cb.ends[:0]
	// i is at the '[' or ',' before each number.
	i := len(predictHead)
	for {
		if i == len(b) || b[i] != '[' {
			return nil, false
		}
		for {
			end := numberEnd(b, i+1)
			if end < 0 || end == len(b) {
				return nil, false
			}
			f, err := strconv.ParseFloat(string(b[i+1:end]), 64)
			if err != nil {
				return nil, false
			}
			cb.vals = append(cb.vals, f)
			i = end
			if b[i] != ',' {
				break
			}
		}
		if b[i] != ']' {
			return nil, false
		}
		cb.ends = append(cb.ends, len(cb.vals))
		i++
		// A comma and the next row, or the end of readings.
		if i == len(b) || b[i] != ',' {
			break
		}
		i++
	}
	if i+1 >= len(b) || b[i] != ']' || b[i+1] != '}' {
		return nil, false
	}
	// Row views are cut only now: vals may have moved while it grew.
	rows := cb.rows[:0]
	start := 0
	for _, end := range cb.ends {
		rows = append(rows, cb.vals[start:end:end])
		start = end
	}
	cb.rows = rows
	return rows, true
}

// numberEnd returns the index after the JSON number starting at b[i], or −1
// when none starts there: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
// strconv.ParseFloat accepts more (hex, underscores, "Inf"), so every token
// is checked against this grammar first.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i == len(b) {
		return -1
	}
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
