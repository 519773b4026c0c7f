package xmlpub

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gapplydb/internal/types"
)

// checkFloat fails unless a float cell renders exactly as
// strconv.AppendFloat(f, 'g', -1, 64), onto an empty buffer and onto a
// prefix.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, f, 'g', -1, 64)
	if got := appendCell(nil, types.NewFloat(f)); !bytes.Equal(got, want) {
		t.Fatalf("appendCell(%v) [bits %#x] = %q, strconv writes %q", f, math.Float64bits(f), got, want)
	}
	if got := appendCell([]byte("x"), types.NewFloat(f)); got[0] != 'x' || !bytes.Equal(got[1:], want) {
		t.Fatalf("appendCell(%v) onto a prefix = %q", f, got)
	}
}

var floatEdges = []float64{
	0, math.Copysign(0, -1), 0.01, -0.01, 0.005, 0.1, 0.05, 0.07, 1, 901, 901.5,
	1026.1, -1026.12, 1026.10, 99.99, 100, 100000, 999999.99, -999999.99,
	1e6, -1e6, 1e6 - 0.01, 1e6 + 0.01, (1 << 53) / 100.0, 1 << 53,
	0.009999999999999998, 0.010000000000000002, 1.005, 2.675, 0.3, 1.0 / 3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1023,
	math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// The hundredths path and its edges, byte for byte against strconv.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	for _, f := range floatEdges {
		checkFloat(t, f)
		checkFloat(t, -f)
	}
	for n := int64(-100_000); n <= 100_000; n++ {
		checkFloat(t, float64(n)/100)
	}
	for n := int64(99_900_000); n <= 100_000_100; n++ {
		checkFloat(t, float64(n)/100)
	}
}

// FuzzAppendFloat holds a float cell byte-identical to
// strconv.AppendFloat(f, 'g', -1, 64) for any bit pattern, and for
// n/100 over any n, which is the hundredths path's whole domain.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatEdges {
		f.Add(math.Float64bits(v), int64(v*100))
	}
	f.Fuzz(func(t *testing.T, bits uint64, n int64) {
		checkFloat(t, math.Float64frombits(bits))
		checkFloat(t, float64(n)/100)
		checkFloat(t, float64(n%100_000_000)/100)
	})
}

// BenchmarkAppendFloat times float cells on the hundredths path (hit)
// and on values it hands to strconv (miss: long averages, values ≥ 1e6
// and tiny values), each beside strconv on the same inputs.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hit, miss := make([]float64, 1024), make([]float64, 1024)
	for i := range hit {
		hit[i] = float64(rng.Int63n(10_000_000)) / 100
		switch i % 3 {
		case 0:
			miss[i] = rng.Float64() * 1000
		case 1:
			miss[i] = 1e6 + float64(rng.Int63n(1e9))/100
		default:
			miss[i] = rng.Float64() / 1000
		}
	}
	for _, arm := range []struct {
		name string
		vals []float64
	}{{"hit", hit}, {"miss", miss}} {
		for _, impl := range []struct {
			name string
			fn   func([]byte, float64) []byte
		}{
			{"appendFloat", appendFloat},
			{"strconv", func(dst []byte, f float64) []byte { return strconv.AppendFloat(dst, f, 'g', -1, 64) }},
		} {
			b.Run(arm.name+"/"+impl.name, func(b *testing.B) {
				buf := make([]byte, 0, 64)
				for i := 0; i < b.N; i++ {
					buf = impl.fn(buf[:0], arm.vals[i%len(arm.vals)])
				}
			})
		}
	}
}
