package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// fuzzPair decodes fuzz bytes into a snapshot pair (a, b). Layout: one
// flags byte (bit 0: a has a Resolve, bit 1: b has one), then for each
// of Gravity, Mean, Fanouts and Resolve: a's length and b's length (one
// byte each), a's values as little-endian float64 bits, and for each
// coordinate of b a tag byte — even keeps a's value (zero past a's
// end), odd is followed by b's own value. Missing bytes read as zero.
// Gravity, Mean and Fanouts are never nil, as the engine publishes
// them; a Resolve the flags leave out is nil.
func fuzzPair(data []byte) (a, b stream.Snapshot) {
	next := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	flags := next(1)[0]
	vecs := func() (va, vb linalg.Vector) {
		lens := next(2)
		va, vb = linalg.NewVector(int(lens[0])), linalg.NewVector(int(lens[1]))
		for i := range va {
			va[i] = math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
		}
		for i := range vb {
			if next(1)[0]&1 == 1 {
				vb[i] = math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
			} else if i < len(va) {
				vb[i] = va[i]
			}
		}
		return va, vb
	}
	a, b = demandSnapshot(1, nil, nil), demandSnapshot(2, nil, nil)
	a.Gravity, b.Gravity = vecs()
	a.Mean, b.Mean = vecs()
	a.Fanouts, b.Fanouts = vecs()
	ra, rb := vecs()
	if flags&1 == 1 {
		a.Resolve = ra
	}
	if flags&2 == 2 {
		b.Resolve = rb
	}
	return a, b
}

// encodeFuzzPair is fuzzPair's inverse for seeding: vectors up to 255
// long, a and b at versions 1 and 2 with demandSnapshot's scalars.
func encodeFuzzPair(a, b stream.Snapshot) []byte {
	var flags byte
	if a.Resolve != nil {
		flags |= 1
	}
	if b.Resolve != nil {
		flags |= 2
	}
	out := []byte{flags}
	float := func(v float64) { out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v)) }
	for _, p := range [][2]linalg.Vector{{a.Gravity, b.Gravity}, {a.Mean, b.Mean}, {a.Fanouts, b.Fanouts}, {a.Resolve, b.Resolve}} {
		va, vb := p[0], p[1]
		out = append(out, byte(len(va)), byte(len(vb)))
		for _, v := range va {
			float(v)
		}
		for i, v := range vb {
			if i < len(va) && math.Float64bits(v) == math.Float64bits(va[i]) || i >= len(va) && math.Float64bits(v) == 0 {
				out = append(out, 0)
				continue
			}
			out = append(out, 1)
			float(v)
		}
	}
	return out
}

// FuzzDeltaApply pins the delta codec on fuzzed snapshot pairs —
// resizes, changed-coordinate sets, values across encoding/json's 1e-6
// and 1e21 format switches, NaN and ±Inf, a nil Resolve on either side:
//   - EncodeDelta returns nil exactly when json.Marshal(ComputeDelta)
//     fails or is longer than ratio × the full body, and otherwise
//     exactly those bytes;
//   - the marshalled delta decodes and applies to a, giving a snapshot
//     that marshals byte-identically to b;
//   - the size bound never exceeds the marshalled delta's length, and
//     formats b's gravity values exactly as json.Marshal.
func FuzzDeltaApply(f *testing.F) {
	// Seeds: the pairs of delta_test.go's cases.
	ramp := func(n int, scale, offset float64) linalg.Vector {
		v := linalg.NewVector(n)
		for i := range v {
			v[i] = scale*float64(i+1) + offset
		}
		return v
	}
	small, big := ramp(4, 1, 0), ramp(7, 10, 0)
	f.Add(encodeFuzzPair(demandSnapshot(1, small, small.Clone()), demandSnapshot(2, big, nil)), 0.0)
	zeros := linalg.NewVector(3)
	f.Add(encodeFuzzPair(demandSnapshot(1, zeros, nil), demandSnapshot(2, zeros, nil)), 0.0)
	base := ramp(200, 1, -0.75)
	drift, moved := base.Clone(), base.Clone()
	drift[17]++
	moved.Scale(1.7)
	f.Add(encodeFuzzPair(demandSnapshot(1, base, nil), demandSnapshot(2, drift, nil)), DefaultDeltaRatio)
	f.Add(encodeFuzzPair(demandSnapshot(1, base, nil), demandSnapshot(2, moved, nil)), DefaultDeltaRatio)
	f.Add(encodeFuzzPair(demandSnapshot(1, base, base.Clone()), demandSnapshot(2, base, base.Clone())), 1e-9)
	for _, spec := range []string{"scaled:16", "noisy:europe:0.05", "failure:europe:worst", "ecmp:europe"} {
		in, err := scenario.Build(spec, 1)
		if err != nil {
			f.Fatal(err)
		}
		d := in.Sc.Series.Demands
		f.Add(encodeFuzzPair(demandSnapshot(1, d[0], nil), demandSnapshot(2, d[1], d[1].Clone())), DefaultDeltaRatio)
		f.Add(encodeFuzzPair(demandSnapshot(1, d[3], d[3].Clone()), demandSnapshot(2, d[4], nil)), 10.0)
	}
	// Values either side of the format switches, the signed zero, the
	// subnormal and float extremes, shrinking and growing vectors.
	edges := linalg.Vector{1e-7, 9.999999e-7, 1e-6, -1e-7, 1e21, 9.999999999999999e20, -1e21, 5e-324, 1e-300, math.MaxFloat64, math.Copysign(0, -1), 0.1}
	f.Add(encodeFuzzPair(demandSnapshot(1, ramp(5, 1, 0), nil), demandSnapshot(2, edges, edges.Clone())), 1.0)
	f.Add(encodeFuzzPair(demandSnapshot(1, edges, edges.Clone()), demandSnapshot(2, ramp(5, 1, 0), nil)), 1.0)
	f.Add(encodeFuzzPair(demandSnapshot(1, edges, nil), demandSnapshot(2, ramp(12, 3, 0), nil)), 0.25)

	f.Fuzz(func(t *testing.T, data []byte, ratio float64) {
		a, b := fuzzPair(data)
		full, fullErr := json.Marshal(b)
		fullSize := len(full) + 1 // NewEntry's trailing newline
		got := EncodeDelta(a, b, fullSize, ratio)
		want, err := json.Marshal(ComputeDelta(a, b))
		r := ratio
		if r <= 0 {
			r = DefaultDeltaRatio
		}
		if err != nil || float64(len(want)) > r*float64(fullSize) {
			if got != nil {
				t.Fatalf("EncodeDelta kept a %dB delta the marshal check drops (marshal error %v, limit %g)", len(got), err, r*float64(fullSize))
			}
		} else if !bytes.Equal(got, want) {
			t.Fatalf("EncodeDelta = %.200q, want json.Marshal(ComputeDelta) = %.200q", got, want)
		}
		if err != nil || fullErr != nil {
			return
		}
		if n := deltaLenBound(a, b, math.Inf(1)); n > len(want) {
			t.Fatalf("size bound %d exceeds the %dB marshalled delta", n, len(want))
		}
		for _, v := range b.Gravity {
			if want, _ := json.Marshal(v); string(appendJSONFloat(nil, v)) != string(want) {
				t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal writes %s", v, appendJSONFloat(nil, v), want)
			}
		}
		d, err := DecodeDelta(want)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := Apply(a, d)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := json.Marshal(applied)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotB, full) {
			t.Fatalf("applied snapshot differs from b\n got: %.300s\nwant: %.300s", gotB, full)
		}
	})
}
