package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/ols"
)

// nestedReading is reading without the ParseFloat fast path: every value
// goes through a nested json.Unmarshal. FuzzReading holds reading to it,
// and the Stdlib decode benchmark times it.
type nestedReading float64

func (r *nestedReading) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*r = nestedReading(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*r = nestedReading(f)
	return nil
}

type nestedPredictRequest struct {
	Tenant   string            `json:"tenant"`
	Readings [][]nestedReading `json:"readings"`
}

// checkFloat fails t unless appendFloat writes json.Marshal's bytes for f.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("%b: %v", f, err)
	}
	if got := appendFloat(nil, f); !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%#016x) = %s, json.Marshal = %s", math.Float64bits(f), got, want)
	}
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{
		// One digit where the JDK's Double.toString keeps two.
		0.3, 2, 0.000005,
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.2, 0.9, 1.1, 100, 1e20, 123456789,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), 1e-7, 1.5e-7, 1e22, 1e300,
		1.0000000000000002, 0.9999999999999999, 0.30000000000000004,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-20, 0x1p69,
		// A tie between two 16-digit decimals: 562949953421312.2 is even.
		562949953421312.25,
		// Powers of two, where the spacing below halves.
		0x1p-19, 0x1p-1, 0x1p0, 0x1p10, 0x1p52, 0x1p53, 0x1p68,
		9007199254740993, 4503599627370497, 0.8764583092384659,
	} {
		checkFloat(t, f)
		checkFloat(t, -f)
	}
}

// TestAppendFloatExponentSweep covers every binary exponent, the %f range
// and beyond, with the edge mantissas — 2^52 (irregular spacing), 2^52+1,
// 2^53−1 — and random ones.
func TestAppendFloatExponentSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for be := uint64(0); be < 2047; be++ {
		fracs := []uint64{0, 1, 1<<52 - 1}
		for i := 0; i < 12; i++ {
			fracs = append(fracs, rng.Uint64()&(1<<52-1))
		}
		for _, fr := range fracs {
			checkFloat(t, math.Float64frombits(be<<52|fr))
			checkFloat(t, math.Float64frombits(1<<63|be<<52|fr))
		}
	}
}

// TestAppendFloatShortAndTies checks the decimals that end before 17
// digits — where the one-digit-fewer step and the tie-break decide — and,
// for every exponent of the %f range, doubles lying exactly halfway
// between two candidate decimals.
func TestAppendFloatShortAndTies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		digits := 1 + rng.Intn(17)
		m := rng.Int63n(int64(math.Pow10(digits)))
		f, err := strconv.ParseFloat(fmt.Sprintf("%de%d", m, rng.Intn(30)-25), 64)
		if err != nil {
			t.Fatal(err)
		}
		checkFloat(t, f)
	}
	// v = c·2^q lies halfway between s·10^k and (s+1)·10^k when c is an odd
	// multiple of 2^(k−q−1).
	ties := 0
	for q := -72; q <= 17; q++ {
		z := flog10pow2(q) - q - 1
		if z < 1 || z > 52 {
			continue
		}
		for i := 0; i < 100; i++ {
			m := uint64(1)<<(52-z) | rng.Uint64()&(1<<(52-z)-1) | 1
			c := m << z
			f := math.Ldexp(float64(c), q)
			if a := math.Abs(f); a < 1e-6 || a >= 1e21 {
				continue
			}
			checkFloat(t, f)
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no tie case in range")
	}
}

func TestPow10TableExact(t *testing.T) {
	one := big.NewInt(1)
	lo := new(big.Int).Lsh(one, 127)
	hi := new(big.Int).Lsh(one, 128)
	for k := pow10MinK; k <= pow10MaxK; k++ {
		// 10^−k = num/den exactly.
		num, den := big.NewInt(1), big.NewInt(1)
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(k))), nil)
		if k < 0 {
			num = p
		} else {
			den = p
		}
		// e = ⌊log2 num/den⌋.
		e := num.BitLen() - den.BitLen()
		if new(big.Int).Lsh(den, uint(max(e, 0))).Cmp(new(big.Int).Lsh(num, uint(max(-e, 0)))) > 0 {
			e--
		}
		// g = ⌊num·2^(127−e)/den⌋ + 1.
		g := new(big.Int).Lsh(num, uint(127-e))
		g.Quo(g, den)
		g.Add(g, one)
		if g.Cmp(lo) < 0 || g.Cmp(hi) >= 0 {
			t.Fatalf("k=%d: g outside [2^127, 2^128)", k)
		}
		ent := pow10Table[k-pow10MinK]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(ent.hi), 64)
		got.Or(got, new(big.Int).SetUint64(ent.lo))
		if got.Cmp(g) != 0 || ent.e != e {
			t.Fatalf("k=%d: table (%x, e=%d), exact (%x, e=%d)", k, got, ent.e, g, e)
		}
	}
}

func abs(k int) int {
	if k < 0 {
		return -k
	}
	return k
}

// TestFloorLog10 checks flog10pow2 and flog10ThreeQuartersPow2 exactly over
// the %f range's exponents, that every k they give is in the table, that
// every shift fits the 64-bit products, and the bound rop relies on: for
// k ≤ 0 a scaled value c·2^(q−k)·5^−k has fraction bits down to 2^(q−k) ≥
// 2^−50 only.
func TestFloorLog10(t *testing.T) {
	pow := func(base, e int) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(abs(e))), nil)
		r := new(big.Rat).SetInt(p)
		if e < 0 {
			r.Inv(r)
		}
		return r
	}
	for q := -72; q <= 17; q++ {
		x := pow(2, q)
		x34 := new(big.Rat).Mul(x, big.NewRat(3, 4))
		for _, c := range []struct {
			v *big.Rat
			k int
		}{{x, flog10pow2(q)}, {x34, flog10ThreeQuartersPow2(q)}} {
			if pow(10, c.k).Cmp(c.v) > 0 || pow(10, c.k+1).Cmp(c.v) <= 0 {
				t.Fatalf("q=%d: k=%d is not ⌊log10 %s⌋", q, c.k, c.v.FloatString(30))
			}
			if c.k < pow10MinK || c.k > pow10MaxK {
				t.Fatalf("q=%d: k=%d outside the table", q, c.k)
			}
			h := q + pow10Table[c.k-pow10MinK].e + 1
			if h < 0 || bits.Len64((4<<53+2)<<h) > 60 {
				t.Fatalf("q=%d: shift %d overflows", q, h)
			}
			if c.k <= 0 && q-c.k < -50 {
				t.Fatalf("q=%d, k=%d: fraction bits below 2^-50", q, c.k)
			}
		}
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0.3, 2, 0.000005, 1e21, 1e-7, 0.9123456789012345, 562949953421312.25} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // JSON has no encoding for them; callers check first
		}
		checkFloat(t, v)
	})
}

// voltageRows returns n rows of k voltage-like values.
func voltageRows(rng *rand.Rand, n, k int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, k)
		for j := range rows[i] {
			rows[i][j] = 0.85 + 0.2*rng.Float64()
		}
	}
	return rows
}

func TestPredictBodyMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		tenant string
		gen    uint64
		rows   [][]float64
	}{
		{"default", 1, voltageRows(rng, 1, 240)},
		{"chip-7", 1 << 40, voltageRows(rng, 3, 5)},
		{"<a&b>\u2028", 2, [][]float64{{1e-7, -0.0, 1e21, 12, 0.1}}},
		{"t", 3, [][]float64{{}}},
	} {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(predictResponse{Tenant: c.tenant, ModelGeneration: c.gen, Blocks: 240, Voltages: c.rows})
		got := appendPredictBody(nil, predictPrefix(c.tenant, c.gen, 240), c.rows)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%q:\n got %s\nwant %s", c.tenant, got, want.Bytes())
		}
	}
}

func TestStreamVoltagesLineMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, cycle := range []int{0, 7, -3, math.MaxInt64} {
		v := voltageRows(rng, 1, 240)[0]
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(streamVoltages{Cycle: cycle, Voltages: v})
		if got := appendStreamVoltages(nil, cycle, v); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("cycle %d:\n got %s\nwant %s", cycle, got, want.Bytes())
		}
	}
}

func TestEncodePredictAllocatesNothing(t *testing.T) {
	rows := voltageRows(rand.New(rand.NewSource(5)), 1, 240)
	prefix := predictPrefix("default", 1, 240)
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	cb.b = appendPredictBody(cb.b[:0], prefix, rows)
	if n := testing.AllocsPerRun(100, func() {
		cb.b = appendPredictBody(cb.b[:0], prefix, rows)
	}); n != 0 {
		t.Fatalf("%v allocations per encode, want 0", n)
	}
}

// checkDecode fails t unless decodePredict gives what json.NewDecoder gives
// for body read through a MaxBytesReader of the given limit: the same error
// text, or the same tenant and readings (NaN compared by bits). It reads the
// body whole and one byte at a time.
func checkDecode(t *testing.T, body []byte, limit int64) {
	t.Helper()
	var want predictRequest
	wantErr := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit)).Decode(&want)
	for _, src := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
		checkDecodeFrom(t, body, limit, src, want, wantErr)
	}
}

func checkDecodeFrom(t *testing.T, body []byte, limit int64, src io.Reader, want predictRequest, wantErr error) {
	t.Helper()
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	tenant, rows, err := decodePredict(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(src), limit), cb)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q (limit %d): error %v, json.Decoder %v", body, limit, err, wantErr)
	}
	if err != nil {
		return
	}
	if tenant != want.Tenant || len(rows) != len(want.Readings) || (rows == nil) != (want.Readings == nil) {
		t.Fatalf("%q: decoded %q %v, json.Decoder %q %v", body, tenant, rows, want.Tenant, want.Readings)
	}
	for i, row := range rows {
		if len(row) != len(want.Readings[i]) {
			t.Fatalf("%q: row %d has %d values, json.Decoder %d", body, i, len(row), len(want.Readings[i]))
		}
		for j, x := range row {
			if math.Float64bits(x) != math.Float64bits(float64(want.Readings[i][j])) {
				t.Fatalf("%q: readings[%d][%d] = %v, json.Decoder %v", body, i, j, x, want.Readings[i][j])
			}
		}
	}
}

// decodeSeeds are TestPredictRejectsBadInput's bodies plus the shapes the
// fixed-schema parser takes and the ones it must leave to encoding/json:
// whitespace, tenant, null, empty rows, duplicate or differently-cased keys,
// escapes, bad numbers and long bodies, valid or not, for the limits to cut.
var decodeSeeds = []string{
	`{"readings":[[0.9,-1.5e-3,1E+2],[0,-0.25,7]]}`, `{"readings":[[0.9,0.7]]}}`, `{"readings":[[0.9,0.7]]`,
	`{"readings":[[0.9,0.7]]} ` + strings.Repeat("x", 300), `{"readings":[[0.9,0.7]]}` + strings.Repeat("}", 300),
	`{"readings":[[` + strings.Repeat("0.5,", 60) + `1]]}`, `{"readings":[[` + strings.Repeat("0.5,", 60) + `x]]}`,
	`{"readings":[[0.9,0.7]` + strings.Repeat(`,[0.9,0.7]`, 20) + `]}`, `{"readings":[[0.9,0.7]] }`,
	`{"readings":[[0.9,0.7]],"tenant":"chip-7"}`, `{"readings":[[0.9 ,0.7]]}`, `{"readings":[[0.9,null]]}`,
	`{"readings":[[0.9,`, `[1,2,3]`, `{"readings":[]}`, `{}`, `{"readings":[[0.9]]}`,
	`{"readings":[[0.9,0.9,0.9]]}`, `{"readings":[[0.9,0.9],[0.9]]}`, `{"readings":[null]}`,
	`{"readings":[[NaN,0.9]]}`,
	`{"readings":[[0.9,0.7]]}`, `{"readings":[[0.9,0.7]]} trailing garbage`,
	" \t\r\n{ \"readings\" : [ [ 0.9 , -1.5e-3 ] , [ null , 1E+2 ] ] , \"tenant\" : \"chip-7\" } ",
	`{"tenant":"chip-7","readings":[[0.9,null]]}`, `{"tenant":""}`, `{"readings":[[]]}`,
	`{"readings":[[0.9,0.7]],"readings":[[0.1,0.2]]}`, `{"tenant":"a","tenant":"b"}`,
	`{"Readings":[[0.9,0.7]]}`, `{"READINGS":[[0.9,0.7]]}`, `{"readings":[[0.9,0.7]],"extra":1}`,
	`{"readin\u0067s":[[0.9,0.7]]}`, `{"tenant":"chip\u002d7","readings":[[0.9,0.7]]}`,
	`{"tenant":"\u00e9","readings":[[1,2]]}`, "{\"tenant\":\"\xff\",\"readings\":[[1,2]]}",
	`{"tenant":null,"readings":[[1,2]]}`, `{"tenant":5,"readings":[[1,2]]}`, `{"readings":null}`,
	`{"readings":[[1e400,0.9]]}`, `{"readings":[[-1e400,0.9]]}`, `{"readings":[[1e-400,0.9]]}`,
	`{"readings":[[01,2]]}`, `{"readings":[[1.,2]]}`, `{"readings":[[.5,2]]}`, `{"readings":[[+1,2]]}`,
	`{"readings":[[0x10,2]]}`, `{"readings":[[1_0,2]]}`, `{"readings":[[Inf,2]]}`, `{"readings":[[-0,2]]}`,
	`{"readings":[["1",2]]}`, `{"readings":[[true,2]]}`, `{"readings":[[1,2],]}`, `{"readings":[[1,2,]]}`,
	`{"readings":[1,2]}`, `{"readings":{}}`, `{"readings":[[1,2]]`, `{"readings":[[1,2]],}`,
	`{"readings":[[1,2]] "tenant":"x"}`, `{,"readings":[[1,2]]}`, ``, ` `, `nul`, `null`,
	"\ufeff{\"readings\":[[1,2]]}", `{"readings":[[1,2]]}{"readings":[[3,4]]}`,
	`{"readings":[[1.7e308,1.7e308]]}`, `{"readings":[[123456789012345678901234567890,1]]}`,
	`{"readings":[[1,2]],"tenant":"` + strings.Repeat("x", 200) + `"}`,
}

func TestDecodePredictMatchesDecoder(t *testing.T) {
	for _, body := range decodeSeeds {
		for _, limit := range []int64{32 << 20, int64(len(body)), int64(len(body)) - 1, 20, 1} {
			if limit >= 1 {
				checkDecode(t, []byte(body), limit)
			}
		}
	}
}

// fuzzServer is a predict server whose body limit fuzz inputs can exceed.
func fuzzServer(tb testing.TB) *Server {
	s, err := New(Config{
		Loader:       func() (*core.Predictor, error) { return testPredictor(), nil },
		Monitor:      monitor.Config{Vth: 0.95},
		MaxBodyBytes: 128,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func FuzzDecodePredict(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body), uint16(len(body)))
		f.Add([]byte(body), uint16(1<<15))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		if limit == 0 {
			limit = 1
		}
		checkDecode(t, body, int64(limit))
		// Through the handler, a body encoding/json rejects gets a 400 whose
		// error body carries encoding/json's own message.
		var req predictRequest
		err := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), 128)).Decode(&req)
		if err == nil {
			return
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]string{"error": "malformed JSON: " + err.Error()})
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want.String() {
			t.Fatalf("%q: %d %s, want 400 %s", body, rec.Code, rec.Body, want.Bytes())
		}
	})
}

func FuzzReading(f *testing.F) {
	for _, tok := range []string{
		`1`, `-0`, `0.9`, `1e400`, `-1e400`, `1e-400`, `null`, `nul`, `"1"`, `true`, `0x10`,
		`1_0`, `Inf`, `NaN`, ` 1`, `1 `, `01`, `+1`, `.5`, `1.`, `1e`, `[1]`, `{}`, ``, `-`,
		`123456789012345678901234567890`, `4.9e-324`, `1.7976931348623157e308`,
	} {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		got, want := reading(-7), nestedReading(-7)
		err := got.UnmarshalJSON(tok)
		wantErr := want.UnmarshalJSON(tok)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: error %v, json.Unmarshal %v", tok, err, wantErr)
		}
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("%q: %v, json.Unmarshal %v", tok, got, want)
		}
	})
}

// TestParsePredictShape pins which bodies take the fixed-schema parser: the
// compact numbers-only shape clients send, and nothing else.
func TestParsePredictShape(t *testing.T) {
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	for _, body := range []string{
		`{"readings":[[0.9,0.7]]}`, `{"readings":[[0.9,-1.5e-3,1E+2],[0,-0.25,7]]}`,
		`{"readings":[[1]]} trailing garbage`,
	} {
		if _, ok := cb.parsePredict([]byte(body)); !ok {
			t.Errorf("%s: left to encoding/json", body)
		}
	}
	for _, body := range []string{
		`{"readings":[]}`, `{"readings":[[]]}`, `{"readings":[[0.9,null]]}`, `{"readings":[[0.9, 0.7]]}`,
		` {"readings":[[0.9,0.7]]}`, `{"readings":[[0.9,0.7]] }`, `{"readings":[[0.9,0.7]],"tenant":"a"}`,
		`{"tenant":"a","readings":[[0.9,0.7]]}`, `{"Readings":[[0.9,0.7]]}`, `{"readings":[[1e400]]}`,
		`{"readings":[[01]]}`, `{"readings":[[0.9,0.7]]`,
	} {
		if _, ok := cb.parsePredict([]byte(body)); ok {
			t.Errorf("%s: taken by the fixed-schema parser", body)
		}
	}
}

// stopReader fails the test when it is read: it stands for the bytes after
// a body's first value, which the decoder must leave unread.
type stopReader struct{ t *testing.T }

func (r stopReader) Read([]byte) (int, error) {
	r.t.Error("read past the end of the first value")
	return 0, io.ErrUnexpectedEOF
}

// TestDecodePredictStopsAtValueEnd checks that the fast path reads a body
// no further than its closing brace, and the fallback no further than
// json.Decoder needs, so trailing bytes stay unread, as before the codec.
func TestDecodePredictStopsAtValueEnd(t *testing.T) {
	for _, body := range []string{`{"readings":[[0.9,0.7]]}`, `{ "readings": [[0.9, null]], "tenant": "a" }`} {
		for _, src := range []io.Reader{strings.NewReader(body), iotest.OneByteReader(strings.NewReader(body))} {
			cb := getCodecBuf()
			if _, rows, err := decodePredict(io.MultiReader(src, stopReader{t}), cb); err != nil || len(rows) != 1 {
				t.Fatalf("%q: rows %v, error %v", body, rows, err)
			}
			putCodecBuf(cb)
		}
	}
}

func TestPredictIgnoresTrailingBytes(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.9,0.7]]} trailing garbage`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	want := `{"tenant":"default","model_generation":1,"blocks":3,"voltages":[[0.9,0.7,0.8]]}` + "\n"
	if string(body) != want {
		t.Fatalf("body %s, want %s", body, want)
	}
}

// TestPredictAnswerMatchesEncoder checks whole batch answers against
// json.Encoder over the local prediction, for a compact body the fixed-schema
// parser takes and an indented one with a tenant field that it leaves to
// encoding/json.
func TestPredictAnswerMatchesEncoder(t *testing.T) {
	const q, k = 16, 240
	pred := benchPredictor(q, k)
	s, err := New(Config{
		Loader:  func() (*core.Predictor, error) { return pred, nil },
		Monitor: monitor.Config{Vth: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rows := voltageRows(rand.New(rand.NewSource(6)), 3, q)
	out := make([][]float64, len(rows))
	for i, x := range rows {
		out[i] = pred.Predict(x)
	}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(predictResponse{Tenant: "default", ModelGeneration: 1, Blocks: k, Voltages: out})
	compact, _ := json.Marshal(map[string]any{"readings": rows})
	indented, _ := json.MarshalIndent(map[string]any{"readings": rows, "tenant": "default"}, " ", "\t")
	for _, body := range [][]byte{compact, indented} {
		code, got := postJSON(t, ts.URL+"/v1/predict", string(body))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("answer differs from json.Encoder:\n got %s\nwant %s", got, want.Bytes())
		}
	}
}

// sumPredictor predicts one block as the sum of two readings, so readings
// near the largest double predict ±Inf.
func sumPredictor() *core.Predictor {
	alpha := mat.Zeros(1, 2)
	alpha.Set(0, 0, 1)
	alpha.Set(0, 1, 1)
	return &core.Predictor{Selected: []int{0, 1}, Model: &ols.Model{Alpha: alpha, C: []float64{0}}}
}

func newSumServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := New(Config{
		Loader:  func() (*core.Predictor, error) { return sumPredictor(), nil },
		Monitor: monitor.Config{Vth: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestPredictRejectsNonFinitePrediction(t *testing.T) {
	ts := newSumServer(t)
	code, body := postJSON(t, ts.URL+"/v1/predict", `{"readings":[[0.4,0.5],[1.7e308,1.7e308]]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", code, body)
	}
	if want := `{"error":"readings[1]: prediction is not finite"}` + "\n"; string(body) != want {
		t.Fatalf("body %q, want %q", body, want)
	}
}

func TestStreamEndsOnNonFinitePrediction(t *testing.T) {
	ts := newSumServer(t)
	in := `{"readings":[0.4,0.5]}` + "\n" + `{"readings":[-1.7e308,-1.7e308]}` + "\n" + `{"readings":[0.4,0.5]}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/stream?emit_voltages=true", "application/x-ndjson", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	want := []string{
		`{"cycle":0,"voltages":[0.9]}`,
		`{"cycle":0,"kind":"raised","block":0,"voltage":0.9}`,
		`{"error":"prediction is not finite"}`,
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stream lines:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// TestCodecBuffersUnderConcurrency sends distinct predict bodies and
// emit_voltages streams at once, so that a pooled buffer shared between two
// requests shows as a wrong answer (and under -race as a race).
func TestCodecBuffersUnderConcurrency(t *testing.T) {
	_, ts := newTestServer(t)
	pred := testPredictor()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				x := [][]float64{{0.9 + 0.001*float64(g), 0.8 + 0.0001*float64(i)}, {float64(i), float64(g) + 0.5}}
				var want bytes.Buffer
				json.NewEncoder(&want).Encode(predictResponse{Tenant: "default", ModelGeneration: 1, Blocks: 3,
					Voltages: [][]float64{pred.Predict(x[0]), pred.Predict(x[1])}})
				body, _ := json.Marshal(map[string]any{"readings": x})
				path, ct := "/v1/predict", "application/json"
				if i%4 == 3 {
					// The same vectors as a stream: two voltages lines.
					l0, _ := json.Marshal(map[string]any{"readings": x[0]})
					l1, _ := json.Marshal(map[string]any{"readings": x[1]})
					body = append(append(append(l0, '\n'), l1...), '\n')
					path, ct = "/v1/stream?emit_voltages=true&vth=0.01", "application/x-ndjson"
					want.Reset()
					json.NewEncoder(&want).Encode(streamVoltages{Cycle: 0, Voltages: pred.Predict(x[0])})
					json.NewEncoder(&want).Encode(streamVoltages{Cycle: 1, Voltages: pred.Predict(x[1])})
				}
				resp, err := http.Post(ts.URL+path, ct, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 == 3 {
					got, _, _ = bytes.Cut(got, []byte(`{"summary"`))
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("goroutine %d request %d:\n got %s\nwant %s", g, i, got, want.Bytes())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
