package nvct

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// wireFloat round-trips every float64 bit pattern, writes finite values
// exactly as encoding/json does, and accepts one spelling per value.
func TestWireFloatIsTotal(t *testing.T) {
	for _, bits := range []uint64{
		0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, // NaNs, payload and sign kept
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0, 1 << 63, 1, math.Float64bits(1.5), math.Float64bits(1e300), math.Float64bits(-2.5e-7),
	} {
		f := wireFloat(math.Float64frombits(bits))
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("%#x: %v", bits, err)
		}
		if v := float64(f); !math.IsNaN(v) && !math.IsInf(v, 0) {
			if std, _ := json.Marshal(v); !bytes.Equal(b, std) {
				t.Errorf("%#x: encoded %s, encoding/json writes %s", bits, b, std)
			}
		}
		var back wireFloat
		if err := json.Unmarshal(b, &back); err != nil || math.Float64bits(float64(back)) != bits {
			t.Errorf("%#x: %s decoded to %#x (err %v)", bits, b, math.Float64bits(float64(back)), err)
		}
	}
	for _, bad := range []string{`"0x3ff0000000000000"`, `"0X7FF8000000000000"`, `"0x7ff8"`, `"NaN"`, `""`} {
		var f wireFloat
		if err := json.Unmarshal([]byte(bad), &f); err == nil {
			t.Errorf("%s decoded without error", bad)
		}
	}
}
