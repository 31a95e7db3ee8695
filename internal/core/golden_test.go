package core

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
)

// TestFeatureIndexGolden pins the exact index computation for a fixed
// input across every feature kind and parameter shape. If this test fails
// after an intentional semantic change, predictor state is no longer
// comparable across versions: re-record the values and say so in the
// commit.
func TestFeatureIndexGolden(t *testing.T) {
	in := &Input{
		PC:       0x402468,
		Addr:     0xdeadbeef,
		Insert:   true,
		Burst:    false,
		LastMiss: true,
	}
	for i := range in.History {
		in.History[i] = 0x400000 + uint64(i)*0x1234
	}
	in.History[0] = in.PC

	cases := []struct {
		spec string
		want uint32
	}{
		{"pc(10,1,53,10,0)", 0x7f}, // recorded golden values
		{"pc(17,6,20,0,1)", 0x92},
		{"pc(16,3,11,16,1)", 0x6b},
		{"address(11,8,19,0)", 0xb3},
		{"address(9,9,14,1)", 0x1c},
		{"offset(15,1,6,1)", 0x2d},
		{"offset(15,3,7,0)", 0x5},
		{"offset(13,0,4,0)", 0xf},
		{"bias(16,0)", 0x0},
		{"bias(6,1)", 0x3},
		{"burst(6,0)", 0x0},
		{"insert(16,0)", 0x1},
		{"insert(16,1)", 0x2},
		{"lastmiss(9,0)", 0x1},
	}
	for _, c := range cases {
		f, err := ParseFeature(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Index(in); got != c.want {
			t.Errorf("%s: index %#x, want %#x", c.spec, got, c.want)
		}
	}
}

// TestPredictionGoldenEndToEnd pins an end-to-end prediction after a fixed
// training sequence, guarding the whole predict/train pipeline under each
// gather kernel.
func TestPredictionGoldenEndToEnd(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		m := NewMPPPB(64, 16, SingleThreadParams())
		c := cache.New("llc", 64, 16, m)
		for i := 0; i < 10000; i++ {
			c.Access(cache.Access{PC: 0x400 + uint64(i%3)*4, Addr: uint64(i%1000) << trace.BlockBits, Type: trace.Load})
			c.Access(cache.Access{PC: 0x900, Addr: uint64(50000+i) << trace.BlockBits, Type: trace.Load})
		}
		probe := cache.Access{PC: 0x900, Addr: 77777 << trace.BlockBits, Type: trace.Load}
		conf := m.Predict(probe, c.SetIndex(probe.Block()), true)
		// The streaming PC must predict clearly dead; the exact value is
		// pinned to catch accidental pipeline changes.
		if conf <= 0 {
			t.Fatalf("streaming PC confidence %d, want positive", conf)
		}
		const golden = 255
		if conf != golden {
			t.Errorf("end-to-end confidence %d, want golden %d (re-record on intentional change)", conf, golden)
		}
	})
}
